"""Unit tests for the evaluation metrics and report formatting."""
from __future__ import annotations

import numpy as np
import pytest

from classvec.metrics import (
    MACHINE_FIELDS,
    evaluate_exclusive,
    evaluate_multilabel,
)


class TestEvaluateExclusive:
    def test_hand_computed_confusion(self):
        # gold a,a,b,b vs pred a,b,a,b: every per-class statistic is 0.5
        rep = evaluate_exclusive(["a", "a", "b", "b"], ["a", "b", "a", "b"])
        assert rep.mode == "exclusive"
        assert rep.n == 4
        assert rep.accuracy == 0.5
        for c in ("a", "b"):
            s = rep.per_class[c]
            assert (s.precision, s.recall, s.f1, s.support) == (0.5, 0.5, 0.5, 2)
        assert rep.weighted_precision == 0.5
        assert rep.weighted_recall == 0.5
        assert rep.weighted_f1 == 0.5
        assert rep.avg_recall == 0.5
        assert rep.jaccard is None and rep.micro_f1 is None and rep.macro_f1 is None

    def test_perfect_predictions(self):
        rep = evaluate_exclusive(["x", "y", "z"], ["x", "y", "z"])
        assert rep.accuracy == 1.0
        assert rep.weighted_f1 == 1.0
        assert all(s.f1 == 1.0 for s in rep.per_class.values())

    def test_imbalanced_hand_case(self):
        # gold: 3x a, 1x b; pred: a a b b
        #   a: tp=2 fp=0 fn=1 -> P=1, R=2/3, F1=0.8
        #   b: tp=1 fp=1 fn=0 -> P=0.5, R=1, F1=2/3
        rep = evaluate_exclusive(["a", "a", "a", "b"], ["a", "a", "b", "b"])
        a, b = rep.per_class["a"], rep.per_class["b"]
        assert (a.precision, a.recall) == (1.0, 2 / 3)
        np.testing.assert_allclose(a.f1, 0.8)
        assert (b.precision, b.recall) == (0.5, 1.0)
        np.testing.assert_allclose(b.f1, 2 / 3)
        np.testing.assert_allclose(rep.weighted_precision, (3 * 1.0 + 1 * 0.5) / 4)
        np.testing.assert_allclose(rep.weighted_recall, rep.accuracy)
        np.testing.assert_allclose(rep.avg_recall, (2 / 3 + 1.0) / 2)

    def test_never_predicted_class_scores_zero(self):
        rep = evaluate_exclusive(["a", "b"], ["a", "a"])
        assert rep.per_class["b"].precision == 0.0
        assert rep.per_class["b"].recall == 0.0
        assert rep.per_class["b"].f1 == 0.0

    def test_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(40)
        labels = list("abcd")
        for _ in range(50):
            n = int(rng.integers(1, 40))
            gold = [labels[i] for i in rng.integers(0, 4, n)]
            pred = [labels[i] for i in rng.integers(0, 4, n)]
            rep = evaluate_exclusive(gold, pred)
            np.testing.assert_allclose(rep.weighted_recall, rep.accuracy, rtol=1e-12)

    def test_default_class_order_is_first_appearance(self):
        rep = evaluate_exclusive(["b", "a"], ["c", "a"])
        assert list(rep.per_class) == ["b", "a", "c"]

    def test_explicit_classes_extend_with_unseen_gold(self):
        rep = evaluate_exclusive(["a", "x"], ["a", "a"], classes=["a", "b"])
        assert list(rep.per_class) == ["a", "b", "x"]
        assert rep.per_class["b"].support == 0
        assert rep.per_class["b"].recall == 0.0

    def test_unknown_prediction_is_an_error(self):
        with pytest.raises(ValueError, match="not in the class set"):
            evaluate_exclusive(["a"], ["zzz"], classes=["a", "b"])

    def test_duplicate_class_list_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            evaluate_exclusive(["a"], ["a"], classes=["a", "a"])

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            evaluate_exclusive(["a"], [])
        with pytest.raises(ValueError):
            evaluate_exclusive([], [])


class TestEvaluateMultilabel:
    def test_hand_computed_sets(self):
        gold = [{"a", "b"}, {"b"}, set(), {"c"}]
        pred = [{"b", "c"}, {"b"}, set(), {"a"}]
        rep = evaluate_multilabel(gold, pred)
        assert rep.mode == "multilabel"
        assert rep.n == 4
        # exact-set matches: instance 2 and 3
        assert rep.accuracy == 0.5
        # jaccard: 1/3, 1, 1 (both empty), 0
        np.testing.assert_allclose(rep.jaccard, (1 / 3 + 1 + 1 + 0) / 4)
        # pooled: tp = (b) + (b) = 2, fp = c,a = 2, fn = a,c = 2
        np.testing.assert_allclose(rep.micro_f1, 2 * 2 / (2 * 2 + 2 + 2))
        # per class: a P=0 R=0 F=0; b tp=2 fp=0 fn=0 F=1; c tp=0 fp=1 fn=1 F=0
        np.testing.assert_allclose(rep.macro_f1, (0 + 1 + 0) / 3)

    def test_both_empty_jaccard_is_one(self):
        rep = evaluate_multilabel([set(), set()], [set(), set()])
        assert rep.jaccard == 1.0
        assert rep.accuracy == 1.0
        # with no classes anywhere the class averages fall back to 0
        assert rep.macro_f1 == 0.0
        assert rep.avg_recall == 0.0

    def test_exact_match_is_strict(self):
        rep = evaluate_multilabel([{"a", "b"}], [{"a"}])
        assert rep.accuracy == 0.0
        np.testing.assert_allclose(rep.jaccard, 0.5)

    def test_weighted_fields_use_indicator_supports(self):
        gold = [{"a"}, {"a"}, {"b"}]
        pred = [{"a"}, {"a", "b"}, set()]
        rep = evaluate_multilabel(gold, pred)
        # a: tp=2 fp=0 fn=0, support 2; b: tp=0 fp=1 fn=1, support 1
        assert rep.per_class["a"].support == 2
        assert rep.per_class["b"].support == 1
        np.testing.assert_allclose(rep.weighted_recall, (2 * 1.0 + 1 * 0.0) / 3)
        np.testing.assert_allclose(rep.avg_recall, 0.5)

    def test_duplicate_labels_in_a_set_collapse(self):
        rep = evaluate_multilabel([["a", "a"]], [["a"]])
        assert rep.accuracy == 1.0

    def test_explicit_classes(self):
        rep = evaluate_multilabel([{"a"}], [{"a"}], classes=["a", "b"])
        assert list(rep.per_class) == ["a", "b"]
        with pytest.raises(ValueError, match="not in the class set"):
            evaluate_multilabel([{"a"}], [{"zzz"}], classes=["a"])


class TestReportFormatting:
    def test_exclusive_machine_line(self):
        rep = evaluate_exclusive(["a", "a", "b", "b"], ["a", "b", "a", "b"])
        fields = rep.machine_line().split("\t")
        assert len(fields) == len(MACHINE_FIELDS) == 10
        assert fields[0] == "exclusive"
        assert fields[1] == "4"
        assert fields[2] == "0.500000"
        assert fields[7:] == ["-", "-", "-"]

    def test_multilabel_machine_line_has_no_placeholders(self):
        rep = evaluate_multilabel([{"a"}, {"b"}], [{"a"}, {"b"}])
        fields = rep.machine_line().split("\t")
        assert len(fields) == 10
        assert "-" not in fields
        assert fields[0] == "multilabel"
        # every numeric field parses as a float
        for f in fields[2:]:
            float(f)

    def test_human_block_layout(self):
        rep = evaluate_exclusive(["a", "b"], ["a", "b"])
        block = rep.human_block()
        lines = block.splitlines()
        assert lines[0].startswith("mode")
        assert any(l.startswith("accuracy") and l.endswith("1.000000") for l in lines)
        header = next(l for l in lines if l.startswith("class"))
        assert "precision" in header and "support" in header
        assert sum(1 for l in lines if l.startswith(("a ", "b "))) == 2
        # exclusive-only fields must not appear
        assert "jaccard" not in block and "micro_f1" not in block

    def test_multilabel_human_block_has_extra_fields(self):
        rep = evaluate_multilabel([{"a"}], [{"a"}])
        block = rep.human_block()
        for name in ("jaccard", "micro_f1", "macro_f1"):
            assert name in block


class TestIndependentRecount:
    def test_exclusive_against_bincount_confusion(self):
        # independent oracle: full confusion matrix via numpy bincount
        rng = np.random.default_rng(41)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 50))
            gold_i = rng.integers(0, k, n)
            pred_i = rng.integers(0, k, n)
            names = [f"c{j}" for j in range(k)]
            rep = evaluate_exclusive(
                [names[i] for i in gold_i], [names[i] for i in pred_i],
                classes=names,
            )
            conf = np.bincount(gold_i * k + pred_i, minlength=k * k).reshape(k, k)
            assert rep.accuracy == pytest.approx(np.trace(conf) / n)
            for j, c in enumerate(names):
                tp = conf[j, j]
                fp = conf[:, j].sum() - tp
                fn = conf[j, :].sum() - tp
                p = tp / (tp + fp) if tp + fp else 0.0
                r = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * p * r / (p + r) if p + r else 0.0
                s = rep.per_class[c]
                assert s.precision == pytest.approx(p)
                assert s.recall == pytest.approx(r)
                assert s.f1 == pytest.approx(f1)
                assert s.support == conf[j, :].sum()


class _CountedName(str):
    """A class name that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        _CountedName.calls += 1
        return str.__hash__(self)


class TestOnePass:
    """Scoring hashes each label occurrence a few times, not once per class."""

    N, K = 300, 60

    def _draw(self):
        rng = np.random.default_rng(42)
        names = [_CountedName(f"class{j}") for j in range(self.K)]

        def labels(low, high):
            drawn = rng.choice(self.K, rng.integers(low, high), replace=False)
            return tuple(names[j] for j in drawn)

        gold = [labels(1, 4) for _ in range(self.N)]  # 1-3 gold labels
        pred = [labels(0, 4) for _ in range(self.N)]  # 0-3 predicted
        return names, gold, pred

    @staticmethod
    def _hashes(score, *args, **kwargs):
        _CountedName.calls = 0
        score(*args, **kwargs)
        return _CountedName.calls

    @pytest.mark.parametrize("explicit", [False, True])
    def test_multilabel(self, explicit):
        names, gold, pred = self._draw()
        occurrences = sum(map(len, gold)) + sum(map(len, pred))
        classes = names if explicit else None
        calls = self._hashes(evaluate_multilabel, gold, pred, classes=classes)
        assert calls <= 8 * (occurrences + self.K)

    def test_exclusive(self):
        names, gold, pred = self._draw()
        gold, pred = [g[0] for g in gold], [p[0] if p else names[0] for p in pred]
        calls = self._hashes(evaluate_exclusive, gold, pred, classes=names)
        assert calls <= 8 * (2 * self.N + self.K)
