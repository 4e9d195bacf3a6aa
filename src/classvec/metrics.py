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

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain
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
        return list(dict.fromkeys(chain(gold_labels, pred_labels)))
    order = dict.fromkeys(classes)
    if len(order) != len(classes):
        raise ValueError("duplicate class names")
    order.update(dict.fromkeys(gold_labels))
    bad = [p for p in pred_labels if p not in order]
    if bad:
        raise ValueError(f"predicted label {bad[0]!r} not in the class set")
    return list(order)


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
    tp, fp, fn = Counter(), Counter(), Counter()
    for g, p in zip(gold_sets, pred_sets):
        tp.update(g & p)
        fp.update(p - g)
        fn.update(g - p)
    per_class = {
        c: ClassScores(*_prf(tp[c], fp[c], fn[c]), tp[c] + fn[c]) for c in order
    }
    _, _, micro_f1 = _prf(tp.total(), fp.total(), fn.total())
    # zero-denominator convention: no support (or no classes at all, every
    # set empty and no explicit class list) averages to 0
    scores = per_class.values()
    support = sum(s.support for s in scores) or 1
    k = len(per_class) or 1
    return EvalReport(
        mode="multilabel",
        n=n,
        accuracy=accuracy,
        weighted_precision=sum(s.precision * s.support for s in scores) / support,
        weighted_recall=sum(s.recall * s.support for s in scores) / support,
        weighted_f1=sum(s.f1 * s.support for s in scores) / support,
        avg_recall=sum(s.recall for s in scores) / k,
        per_class=per_class,
        jaccard=jaccard,
        micro_f1=micro_f1,
        macro_f1=sum(s.f1 for s in scores) / k,
    )
