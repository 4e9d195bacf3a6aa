"""Evaluation statistics for exclusive and multilabel classification.

Conventions: precision/recall/F1 are 0 whenever their denominator is 0;
the Jaccard score of two empty label sets is 1. Weighted averages weight
per-class scores by gold support; ``avg_recall`` and ``macro_f1`` are
unweighted class means.

Reports serialize two ways: an aligned human-readable block, and one
tab-separated machine line with a fixed field order (see
``MACHINE_FIELDS``; fields a mode does not define hold ``-``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from ._names import MACHINE_FIELDS


@dataclass(frozen=True)
class ClassScores:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    mode: str
    n: int
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    avg_recall: float
    per_class: dict[str, ClassScores]
    jaccard: float | None = None
    micro_f1: float | None = None
    macro_f1: float | None = None

    def machine_line(self) -> str:
        """One tab-separated record; field order is ``MACHINE_FIELDS``."""
        values = []
        for name in MACHINE_FIELDS:
            v = getattr(self, name)
            if v is None:
                values.append("-")
            elif isinstance(v, float):
                values.append(f"{v:.6f}")
            else:
                values.append(str(v))
        return "\t".join(values)

    def human_block(self) -> str:
        lines = [f"{'mode':<20}{self.mode}", f"{'instances':<20}{self.n}"]
        for name in MACHINE_FIELDS[2:]:
            v = getattr(self, name)
            if v is not None:
                lines.append(f"{name:<20}{v:.6f}")
        lines.append("")
        lines.append(f"{'class':<16}{'precision':>10}{'recall':>10}"
                     f"{'f1':>10}{'support':>9}")
        for name, s in self.per_class.items():
            lines.append(f"{name:<16}{s.precision:>10.6f}{s.recall:>10.6f}"
                         f"{s.f1:>10.6f}{s.support:>9}")
        return "\n".join(lines)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _resolve_classes(
    gold_labels: Iterable[str],
    pred_labels: Iterable[str],
    classes: Sequence[str] | None,
) -> list[str]:
    """First-appearance class order over gold then pred, or the explicit
    list (extended by unseen gold classes; unknown pred classes are an
    error)."""
    if classes is None:
        out = list(dict.fromkeys(list(gold_labels) + list(pred_labels)))
        return out
    out = list(dict.fromkeys(classes))
    if len(out) != len(list(classes)):
        raise ValueError("duplicate class names")
    known = set(out)
    for g in gold_labels:
        if g not in known:
            known.add(g)
            out.append(g)
    bad = [p for p in pred_labels if p not in known]
    if bad:
        raise ValueError(f"predicted label {bad[0]!r} not in the class set")
    return out


def evaluate_exclusive(
    gold: Sequence[str],
    pred: Sequence[str],
    classes: Sequence[str] | None = None,
) -> EvalReport:
    """Score single-label predictions against single-label gold: the
    multilabel scores of one-label sets, whose weighted averages weight by
    the same supports, without the set-only fields."""
    report = evaluate_multilabel([(g,) for g in gold], [(p,) for p in pred], classes)
    return replace(report, mode="exclusive", jaccard=None, micro_f1=None, macro_f1=None)


def evaluate_multilabel(
    gold: Sequence[Iterable[str]],
    pred: Sequence[Iterable[str]],
    classes: Sequence[str] | None = None,
) -> EvalReport:
    """Score label-set predictions against label-set gold.

    ``accuracy`` is the exact-set-match fraction; ``jaccard`` is the mean
    per-instance |G∩P| / |G∪P| (1 when both are empty); micro F1 pools
    (instance, class) counts globally; macro F1 averages per-class F1.
    """
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sets vs {len(pred)} prediction sets")
    if len(gold) < 1:
        raise ValueError("need at least one instance")
    gold_sets = [frozenset(g) for g in gold]
    pred_sets = [frozenset(p) for p in pred]
    order = _resolve_classes(
        (l for g in gold_sets for l in sorted(g)),
        (l for p in pred_sets for l in sorted(p)),
        classes,
    )
    n = len(gold_sets)
    accuracy = sum(g == p for g, p in zip(gold_sets, pred_sets)) / n
    jaccard = sum(
        1.0 if not g and not p else len(g & p) / len(g | p)
        for g, p in zip(gold_sets, pred_sets)
    ) / n
    per_class: dict[str, ClassScores] = {}
    total_tp = total_fp = total_fn = 0
    for c in order:
        tp = sum(1 for g, p in zip(gold_sets, pred_sets) if c in g and c in p)
        fp = sum(1 for g, p in zip(gold_sets, pred_sets) if c not in g and c in p)
        fn = sum(1 for g, p in zip(gold_sets, pred_sets) if c in g and c not in p)
        total_tp, total_fp, total_fn = total_tp + tp, total_fp + fp, total_fn + fn
        p, r, f1 = _prf(tp, fp, fn)
        per_class[c] = ClassScores(p, r, f1, tp + fn)
    _, _, micro_f1 = _prf(total_tp, total_fp, total_fn)
    # zero-denominator convention: no classes at all (every set empty and
    # no explicit class list) averages to 0
    macro_f1 = (
        sum(s.f1 for s in per_class.values()) / len(per_class) if per_class else 0.0
    )
    return EvalReport(
        mode="multilabel",
        n=n,
        accuracy=accuracy,
        jaccard=jaccard,
        micro_f1=micro_f1,
        macro_f1=macro_f1,
        **_weighted(per_class, sum(s.support for s in per_class.values())),
    )


def _weighted(per_class: dict[str, ClassScores], total_support: int) -> dict:
    """Support-weighted averages plus the unweighted mean recall."""
    if total_support:
        wp = sum(s.precision * s.support for s in per_class.values()) / total_support
        wr = sum(s.recall * s.support for s in per_class.values()) / total_support
        wf = sum(s.f1 * s.support for s in per_class.values()) / total_support
    else:
        wp = wr = wf = 0.0
    avg_recall = (
        sum(s.recall for s in per_class.values()) / len(per_class)
        if per_class
        else 0.0
    )
    return {
        "weighted_precision": wp,
        "weighted_recall": wr,
        "weighted_f1": wf,
        "avg_recall": avg_recall,
        "per_class": per_class,
    }
