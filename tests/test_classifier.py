"""Unit tests for the mean-pool linear probe."""
from __future__ import annotations

import io
import logging
import math
import re
import warnings

import numpy as np
import pytest

from classvec import _kernel, classifier
from classvec.classifier import (
    ClassifierConfig,
    ClassifierFormatError,
    ClassifierModel,
    embed_doc,
    load_classifier,
    loss_and_grads,
    predict,
    save_classifier,
    sigmoid,
    softmax,
    train_classifier,
)
from classvec.corpus import Document, from_documents
from classvec.embedding_io import EmbeddingSet

from _constructions import disable_kernel, random_embedding


def _cluster_corpus(rng, n_per_class=20, dim=6, sep=4.0):
    """Two well-separated Gaussian clusters of single-token documents."""
    words, rows, docs = [], [], []
    for ci, label in enumerate(("yes", "no")):
        center = np.zeros(dim)
        center[ci] = sep
        for i in range(n_per_class):
            w = f"{label}{i}"
            words.append(w)
            rows.append(center + rng.normal(0, 0.3, dim))
            docs.append(Document((w,), (label,)))
    emb = EmbeddingSet(words, np.array(rows, dtype=np.float32))
    return from_documents(docs), emb


class TestClassifierConfig:
    def test_defaults(self):
        cfg = ClassifierConfig()
        assert (cfg.epochs, cfg.lr, cfg.seed, cfg.l2) == (50, 0.05, 1, 0.0)

    @pytest.mark.parametrize(
        "kwargs", [dict(epochs=0), dict(lr=0.0), dict(lr=-1.0), dict(l2=-0.1),
                   dict(lr=math.nan), dict(lr=math.inf), dict(l2=math.nan),
                   dict(l2=math.inf), dict(seed=-1), dict(seed=2**64),
                   dict(seed=1.5)]
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ClassifierConfig(**kwargs)

    @pytest.mark.parametrize("field", ["lr", "l2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ClassifierConfig(**{field: value})


class TestEmbedDoc:
    def test_mean_of_in_vocabulary_vectors(self):
        emb = EmbeddingSet(["a", "b"], np.array([[2, 4], [4, 8]], np.float32))
        x = embed_doc(Document(("a", "b", "oov"), ("c",)), emb)
        np.testing.assert_allclose(x, [3.0, 6.0])
        assert x.dtype == np.float64

    def test_repeated_tokens_count_repeatedly(self):
        emb = EmbeddingSet(["a", "b"], np.array([[3, 0], [0, 3]], np.float32))
        x = embed_doc(Document(("a", "a", "b"), ("c",)), emb)
        np.testing.assert_allclose(x, [2.0, 1.0])

    def test_all_oov_gives_zero_vector(self):
        emb = EmbeddingSet(["a"], np.ones((1, 3), np.float32))
        x = embed_doc(Document(("x", "y"), ("c",)), emb)
        np.testing.assert_array_equal(x, np.zeros(3))


class TestSoftmax:
    def test_pinned_values(self):
        p = softmax(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(
            p,
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748218],
            rtol=1e-12,
        )

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.normal(0, 10, int(rng.integers(2, 7)))
            p = softmax(z)
            assert abs(p.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(p, softmax(z + 123.0), rtol=1e-9)

    def test_extreme_logits_do_not_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)


class TestSigmoid:
    def test_midpoint_is_exactly_one_half(self):
        # the multilabel threshold boundary test relies on this
        assert sigmoid(0.0) == 0.5
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_far_tails_are_exact_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = sigmoid(np.array([-1000.0, 1000.0]))
        assert p.tolist() == [0.0, 1.0]

    def test_symmetry(self):
        z = np.concatenate(
            [np.linspace(-50, 50, 100001), np.random.default_rng(4).normal(0, 5, 10**5)]
        )
        # 1 - sigmoid(z) is exact, but sigmoid(z) above 0.5 lies on a grid of
        # eps/2 and carries a few roundings; measured worst case: eps
        np.testing.assert_allclose(
            sigmoid(-z), 1.0 - sigmoid(z), rtol=0, atol=2 * np.finfo(np.float64).eps
        )

    def test_matches_scipy_expit(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.normal(size=10**5), np.linspace(-700, 700, 100001)])
        # both sit within 2 ulps of the exact value on normal draws; they
        # differ by up to 4 ulps where exp(-z) is large (z near -37)
        np.testing.assert_array_max_ulp(sigmoid(z), special.expit(z), maxulp=4)


class TestLossAndGrads:
    def test_exclusive_zero_parameters_oracle(self):
        x = np.array([1.0, 0.0])
        w, b = np.zeros((2, 2)), np.zeros(2)
        loss, grad_w, grad_b = loss_and_grads(x, 0, w, b, "exclusive")
        np.testing.assert_allclose(loss, math.log(2), rtol=1e-12)
        np.testing.assert_allclose(grad_b, [-0.5, 0.5], rtol=1e-12)
        np.testing.assert_allclose(grad_w, np.outer(x, [-0.5, 0.5]), rtol=1e-12)

    def test_multilabel_zero_parameters_oracle(self):
        x = np.array([2.0, -1.0])
        w, b = np.zeros((2, 3)), np.zeros(3)
        y = np.array([1.0, 0.0, 1.0])
        loss, grad_w, grad_b = loss_and_grads(x, y, w, b, "multilabel")
        np.testing.assert_allclose(loss, 3 * math.log(2), rtol=1e-12)
        np.testing.assert_allclose(grad_b, [-0.5, 0.5, -0.5], rtol=1e-12)
        np.testing.assert_allclose(grad_w, np.outer(x, grad_b), rtol=1e-12)

    def test_l2_adds_penalty_and_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, 3)
        w = rng.normal(0, 1, (3, 2))
        b = rng.normal(0, 1, 2)
        l0, g0, _ = loss_and_grads(x, 1, w, b, "exclusive", l2=0.0)
        l1, g1, _ = loss_and_grads(x, 1, w, b, "exclusive", l2=0.1)
        np.testing.assert_allclose(l1 - l0, 0.05 * (w ** 2).sum(), rtol=1e-9)
        np.testing.assert_allclose(g1 - g0, 0.1 * w, rtol=1e-9)

    def test_extreme_logits_stay_finite(self):
        x = np.array([1000.0])
        w = np.array([[1.0, -1.0]])
        b = np.zeros(2)
        loss, grad_w, grad_b = loss_and_grads(x, 0, w, b, "exclusive")
        assert np.isfinite(loss) and np.isfinite(grad_w).all()
        loss_ml, _, _ = loss_and_grads(
            x, np.array([0.0, 1.0]), w, b, "multilabel"
        )
        assert np.isfinite(loss_ml)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            loss_and_grads(np.zeros(1), 0, np.zeros((1, 2)), np.zeros(2), "ranked")


class TestTrainClassifier:
    def test_separable_clusters_reach_full_training_accuracy(self):
        rng = np.random.default_rng(10)
        corpus, emb = _cluster_corpus(rng)
        model = train_classifier(corpus, emb)
        hits = sum(predict(model, d, emb) == d.labels[0] for d in corpus.docs)
        assert hits == len(corpus.docs)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(11)
        corpus, emb = _cluster_corpus(rng, n_per_class=8)
        m1 = train_classifier(corpus, emb, ClassifierConfig(seed=3))
        m2 = train_classifier(corpus, emb, ClassifierConfig(seed=3))
        m3 = train_classifier(corpus, emb, ClassifierConfig(seed=4))
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)
        assert not np.array_equal(m1.weights, m3.weights)

    def test_epochs_visit_seeded_permutations_that_differ(self, monkeypatch):
        corpus, emb = _cluster_corpus(np.random.default_rng(11), n_per_class=8)
        orders = []
        probe_epoch = _kernel.probe_epoch

        def recording(x, targets, order, *args):
            orders.append(order.tolist())
            return probe_epoch(x, targets, order, *args)

        monkeypatch.setattr(_kernel, "probe_epoch", recording)
        for seed in (3, 3, 4):
            train_classifier(corpus, emb, ClassifierConfig(epochs=4, seed=seed))
        assert all(sorted(o) == list(range(len(corpus.docs))) for o in orders)
        first, again, other = orders[:4], orders[4:8], orders[8:]
        assert len(set(map(tuple, first))) == 4
        assert first == again and first != other

    def test_exclusive_rejects_multilabel_documents(self):
        emb = EmbeddingSet(["a"], np.ones((1, 2), np.float32))
        corpus = from_documents([
            Document(("a",), ("x", "y")),
            Document(("a",), ("x",)),
        ])
        with pytest.raises(ValueError, match="single-label"):
            train_classifier(corpus, emb, mode="exclusive")

    def test_rejects_an_unknown_mode(self):
        corpus, emb = _cluster_corpus(np.random.default_rng(13), n_per_class=2)
        with pytest.raises(ValueError, match="mode must be one of .*'fuzzy'"):
            train_classifier(corpus, emb, mode="fuzzy")

    def test_exclusive_needs_two_classes(self):
        emb = EmbeddingSet(["a"], np.ones((1, 2), np.float32))
        corpus = from_documents([Document(("a",), ("only",))])
        with pytest.raises(ValueError, match="2 classes"):
            train_classifier(corpus, emb, mode="exclusive")

    def test_multilabel_training_and_prediction(self):
        rng = np.random.default_rng(12)
        emb = random_embedding(rng, 8, 4)
        docs = [
            Document(("t0", "t1"), ("x", "y")),
            Document(("t2", "t3"), ("x",)),
            Document(("t4", "t5"), ("y",)),
            Document(("t6", "t7"), ("x", "y")),
        ]
        corpus = from_documents(docs)
        model = train_classifier(corpus, emb, mode="multilabel", threshold=0.4)
        assert model.mode == "multilabel"
        assert model.threshold == 0.4
        for d in corpus.docs:
            out = predict(model, d, emb)
            assert isinstance(out, tuple)
            assert all(c in corpus.classes for c in out)


class TestPredict:
    def test_exclusive_ties_break_to_lowest_class_index(self):
        model = ClassifierModel(
            np.zeros((2, 3)), np.zeros(3), ("a", "b", "c"), "exclusive"
        )
        emb = EmbeddingSet(["w"], np.ones((1, 2), np.float32))
        assert predict(model, Document(("w",), ("a",)), emb) == "a"

    def test_multilabel_threshold_boundary(self):
        # bias 0 gives sigmoid exactly 0.5: >= threshold keeps the class
        model = ClassifierModel(
            np.zeros((2, 2)), np.array([0.0, -1.0]), ("a", "b"),
            "multilabel", threshold=0.5,
        )
        emb = EmbeddingSet(["w"], np.zeros((1, 2), np.float32))
        assert predict(model, Document(("w",), ("a",)), emb) == ("a",)

    def test_multilabel_may_predict_nothing(self):
        model = ClassifierModel(
            np.zeros((2, 2)), np.array([-5.0, -5.0]), ("a", "b"),
            "multilabel",
        )
        emb = EmbeddingSet(["w"], np.zeros((1, 2), np.float32))
        assert predict(model, Document(("w",), ("a",)), emb) == ()


class TestModelValidation:
    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            ClassifierModel(np.zeros((2, 2)), np.zeros(3), ("a", "b"), "exclusive")
        with pytest.raises(ValueError):
            ClassifierModel(np.zeros((2, 2)), np.zeros(2), ("a", "a"), "exclusive")
        with pytest.raises(ValueError):
            ClassifierModel(np.zeros((2, 1)), np.zeros(1), ("a",), "exclusive")
        with pytest.raises(ValueError):
            ClassifierModel(
                np.full((2, 2), np.nan), np.zeros(2), ("a", "b"), "exclusive"
            )
        with pytest.raises(ValueError):
            ClassifierModel(np.zeros((2, 2)), np.zeros(2), ("a", "b"), "fuzzy")
        with pytest.raises(ValueError):
            ClassifierModel(
                np.zeros((2, 2)), np.zeros(2), ("a", "b"), "multilabel",
                threshold=1.0,
            )

    def test_needs_a_class_and_weights_of_one_column_each(self):
        with pytest.raises(ValueError, match="at least 1 class required"):
            ClassifierModel(np.zeros((2, 0)), np.zeros(0), (), "multilabel")
        with pytest.raises(ValueError, match="weights must be m x K"):
            ClassifierModel(np.zeros((2, 3)), np.zeros(2), ("a", "b"), "exclusive")
        with pytest.raises(ValueError, match="weights must be m x K"):
            ClassifierModel(np.zeros(2), np.zeros(2), ("a", "b"), "multilabel")


class TestPersistence:
    def _random_model(self, rng, k=3, m=5, mode="exclusive", threshold=0.5):
        classes = tuple(f"class {i}" for i in range(k))  # spaces allowed
        return ClassifierModel(
            rng.normal(0, 1, (m, k)), rng.normal(0, 1, k), classes, mode, threshold
        )

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(20)
        for mode, threshold in (("exclusive", 0.5), ("multilabel", 0.75)):
            model = self._random_model(rng, mode=mode, threshold=threshold)
            buf = io.BytesIO()
            save_classifier(model, buf)
            buf.seek(0)
            back = load_classifier(buf)
            np.testing.assert_array_equal(back.weights, model.weights)
            np.testing.assert_array_equal(back.bias, model.bias)
            assert back.classes == model.classes
            assert back.mode == mode
            assert back.threshold == threshold

    # every line break of str.splitlines but '\n', which the writer rejects
    @pytest.mark.parametrize("name", ["a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x1db",
                                      "a\x1eb", "a\x85b", "a\u2028b", "a\u2029b", "b\r"])
    def test_class_names_with_other_line_breaks_round_trip(self, name):
        model = self._random_model(np.random.default_rng(22), k=2, m=3)
        model = ClassifierModel(model.weights, model.bias, (name, "ok"), "exclusive")
        buf = io.BytesIO()
        save_classifier(model, buf)
        back = load_classifier(io.BytesIO(buf.getvalue()))
        assert back.classes == (name, "ok")
        np.testing.assert_array_equal(back.weights, model.weights)

    def test_random_round_trips(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            model = self._random_model(
                rng, k=int(rng.integers(2, 6)), m=int(rng.integers(1, 7))
            )
            buf = io.BytesIO()
            save_classifier(model, buf)
            buf.seek(0)
            back = load_classifier(buf)
            np.testing.assert_array_equal(back.weights, model.weights)
            np.testing.assert_array_equal(back.bias, model.bias)

    def test_header_layout(self):
        model = ClassifierModel(
            np.array([[1.5], [0.25]]), np.array([-2.0]), ("only",), "multilabel"
        )
        buf = io.BytesIO()
        save_classifier(model, buf)
        lines = buf.getvalue().decode().splitlines()
        assert lines[0] == "1 2 multilabel 0.5"
        assert lines[1] == "only"
        assert lines[2] == "1.5 0.25 -2"

    def test_class_names_with_tabs_or_newlines_rejected(self):
        for bad in ("a\tb", "a\nb"):
            model = ClassifierModel(
                np.zeros((1, 2)), np.zeros(2), (bad, "ok"), "exclusive"
            )
            with pytest.raises(ValueError, match="persisted"):
                save_classifier(model, io.BytesIO())

    @pytest.mark.parametrize(
        "data",
        [
            b"",  # empty
            b"2 2 exclusive\nx\ty\n",  # short header
            b"x 2 exclusive 0.5\na\tb\n1 1 1\n1 1 1\n",  # non-integer K
            b"2 2 fuzzy 0.5\na\tb\n1 1 1\n1 1 1\n",  # unknown mode
            b"2 2 exclusive 0.5\na\n1 1 1\n1 1 1\n",  # class count mismatch
            b"2 2 exclusive 0.5\na\tb\n1 1 1\n",  # missing row
            b"2 2 exclusive 0.5\na\tb\n1 1 1\n1 1\n",  # short row
            b"2 2 exclusive 0.5\na\tb\n1 1 1\n1 x 1\n",  # malformed value
            b"2 2 exclusive 2.0\na\tb\n1 1 1\n1 1 1\n",  # bad threshold
            b"1 -1 exclusive 0.5\na\n1\n",  # negative m
            b"2 -3 exclusive 0.5\na\tb\n1\n1\n",  # negative m, K > 1
            b"1_0 2 exclusive 0.5\na\tb\n1 1 1\n1 1 1\n",  # underscore in K
            "2 \u0662 exclusive 0.5\na\tb\n1 1 1\n1 1 1\n".encode(),  # non-ASCII m
            b"2 2 exclusive 0.5_0\na\tb\n1 1 1\n1 1 1\n",  # underscore in threshold
            "1 1 multilabel 0.5\na\n1_0 \u0663\n".encode(),  # float() takes both
            b"1 1 multilabel 0.5\na\n1 1\x1c\n",  # float() strips \x1c
        ],
    )
    def test_load_rejects_malformed_files(self, data):
        with pytest.raises(ClassifierFormatError):
            load_classifier(io.BytesIO(data))

    @pytest.mark.parametrize("header", [b"1 -1 exclusive 0.5", b"0 2 multilabel 0.5"])
    def test_non_positive_sizes_name_the_header_line(self, header):
        with pytest.raises(ClassifierFormatError, match="line 1"):
            load_classifier(io.BytesIO(header + b"\na\n1\n"))

    @pytest.mark.parametrize(
        "header", ["1_0 1 multilabel 0.5", "1 +1 multilabel 0.5", "1 1 multilabel 0.5_0",
                   "1 1 multilabel \u0660.5"],
    )
    def test_header_numbers_are_word2vec_numerals(self, header):
        data = header.encode() + b"\na\n1 1\n"
        with pytest.raises(ClassifierFormatError, match="line 1: malformed header numbers"):
            load_classifier(io.BytesIO(data))

    @pytest.mark.parametrize(
        "row,message",
        [("1_0 \u0663", "row 2: malformed value"), ("1 2 3", "row 2: expected 2 values, got 3")],
    )
    def test_row_errors_name_the_row(self, row, message):
        data = f"2 1 exclusive 0.5\na\tb\n1 1\n{row}\n".encode()
        with pytest.raises(ClassifierFormatError, match=message):
            load_classifier(io.BytesIO(data))


def _probe_setup(mode: str):
    """A three-class corpus of 15 documents, the last one all out of
    vocabulary (a zero feature row), with its features and targets laid
    out as train_classifier hands them to the kernel."""
    rng = np.random.default_rng(30)
    emb = random_embedding(rng, 12, 5)
    classes = ("a", "b", "c")
    docs = []
    for i in range(14):
        tokens = tuple(f"t{j}" for j in rng.integers(0, 12, 4))
        if mode == "exclusive":
            labels = (classes[i % 3],)
        else:
            labels = tuple(c for c in classes if rng.random() < 0.5) or (classes[i % 3],)
        docs.append(Document(tokens, labels))
    docs.append(Document(("oov1", "oov2"), ("b",)))
    corpus = from_documents(docs)
    xs = np.array([embed_doc(d, emb) for d in corpus.docs])
    return corpus, emb, xs, classifier._targets(corpus, mode)


def _loop_before_the_kernel(corpus, emb, cfg, mode):
    """train_classifier as it was before the compiled epoch: targets as a
    list, one numpy step per example in each epoch's seeded permutation."""
    xs = np.array([embed_doc(d, emb) for d in corpus.docs])
    class_index = {c: i for i, c in enumerate(corpus.classes)}
    if mode == "exclusive":
        targets = [class_index[d.labels[0]] for d in corpus.docs]
    else:
        targets = []
        for d in corpus.docs:
            y = np.zeros(len(corpus.classes))
            for label in d.labels:
                y[class_index[label]] = 1.0
            targets.append(y)
    weights = np.zeros((emb.dim, len(corpus.classes)))
    bias = np.zeros(len(corpus.classes))
    key = _kernel.stream_key(cfg.seed, _kernel.STREAM_PROBE)
    for epoch in range(cfg.epochs):
        for i in _kernel.permutation(key, len(xs), epoch):
            _, grad_w, grad_b = loss_and_grads(xs[i], targets[i], weights, bias, mode, cfg.l2)
            weights -= cfg.lr * grad_w
            bias -= cfg.lr * grad_b
    return weights, bias


class TestProbeKernel:
    @pytest.mark.parametrize("mode", ["exclusive", "multilabel"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    def test_matches_reference_after_several_epochs(self, kernel_library, mode, l2):
        corpus, emb, xs, targets = _probe_setup(mode)
        assert not xs[-1].any()
        k = len(corpus.classes)
        ref_w, ref_b = np.zeros((emb.dim, k)), np.zeros(k)
        w, b = ref_w.copy(), ref_b.copy()
        rng = np.random.default_rng(31)
        for _ in range(6):
            order = rng.permutation(len(xs))
            ref_loss = classifier._reference_epoch(
                xs, targets, order, ref_w, ref_b, mode, 0.3, l2
            )
            loss = _kernel.probe_epoch(xs, targets, order, w, b, 0.3, l2)
            assert abs(loss - ref_loss) <= 1e-10
        np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-10)
        np.testing.assert_allclose(b, ref_b, rtol=0, atol=1e-10)
        assert np.abs(ref_w).max() > 0.1  # the parameters moved

    @pytest.mark.parametrize("mode, name, spoil", [
        ("exclusive", "xs", lambda a: a.astype(np.float32)),
        ("exclusive", "targets", lambda a: a.astype(np.int32)),
        ("multilabel", "targets", lambda a: a.astype(np.float32)),
        ("multilabel", "targets", np.asfortranarray),
        ("exclusive", "weights", np.asfortranarray),
        ("exclusive", "bias", lambda a: np.lib.stride_tricks.as_strided(a, writeable=False)),
        ("exclusive", "order", lambda a: np.repeat(a, 2)[::2]),
    ])
    def test_checks_dtype_layout_and_writeability_before_the_call(
        self, kernel_library, mode, name, spoil
    ):
        corpus, emb, xs, targets = _probe_setup(mode)
        k = len(corpus.classes)
        args = dict(xs=xs, targets=targets, order=np.arange(len(xs)),
                    weights=np.full((emb.dim, k), 0.5), bias=np.full(k, 0.25))
        intact = {key: a.copy() for key, a in args.items()}
        args[name] = spoil(args[name])
        before = args["weights"].tobytes(), args["bias"].tobytes()
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernel.probe_epoch(*args.values(), 0.3, 0.0)
        assert (args["weights"].tobytes(), args["bias"].tobytes()) == before
        # the same call on intact arrays trains
        _kernel.probe_epoch(*intact.values(), 0.3, 0.0)
        assert intact["weights"].tobytes() != before[0]

    @pytest.mark.parametrize("mode, target", [("exclusive", 0), ("multilabel", [1.0, 0.0, 1.0])])
    def test_extreme_logits_match_the_reference(self, kernel_library, mode, target):
        # logits -1000, 0, 1000: softmax needs the shift by the last, largest one
        xs = np.array([[1000.0]])
        targets = np.array([target], dtype=np.int64 if mode == "exclusive" else np.float64)
        order = np.zeros(1, dtype=np.int64)
        ref_w, ref_b = np.array([[-1.0, 0.0, 1.0]]), np.zeros(3)
        w, b = ref_w.copy(), ref_b.copy()
        ref_loss = classifier._reference_epoch(xs, targets, order, ref_w, ref_b, mode, 1e-3, 0.0)
        loss = _kernel.probe_epoch(xs, targets, order, w, b, 1e-3, 0.0)
        assert math.isfinite(loss) and abs(loss - ref_loss) <= 1e-10
        np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-10)
        np.testing.assert_allclose(b, ref_b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("mode, spoil", [
        ("exclusive", lambda a: a.update(weights=np.full((5, 4), 0.5))),
        ("exclusive", lambda a: a.update(targets=a["targets"][:-1])),
        ("multilabel", lambda a: a.update(targets=np.zeros((15, 4)))),
    ])
    def test_checks_shapes_before_the_call(self, kernel_library, mode, spoil):
        corpus, emb, xs, targets = _probe_setup(mode)
        args = dict(xs=xs, targets=targets, order=np.arange(len(xs)),
                    weights=np.full((emb.dim, 3), 0.5), bias=np.full(3, 0.25))
        spoil(args)
        with pytest.raises(ValueError, match="disagree in shape"):
            _kernel.probe_epoch(*args.values(), 0.3, 0.0)
        assert (args["weights"] == 0.5).all() and (args["bias"] == 0.25).all()

    @pytest.mark.parametrize("mode, order, label", [
        ("exclusive", [0, 1, 15], None),     # row past the end
        ("exclusive", [0, -1], None),        # negative row
        ("multilabel", [2, 15], None),
        ("exclusive", [0, 1, 3], 3),         # class index past K, last step
        ("exclusive", [3], -1),              # negative class index
    ])
    def test_out_of_range_index_writes_nothing(self, kernel_library, mode, order, label):
        corpus, emb, xs, targets = _probe_setup(mode)
        if label is not None:
            targets[3] = label
        k = len(corpus.classes)
        w, b = np.full((emb.dim, k), 0.5), np.full(k, 0.25)
        with pytest.raises(IndexError):
            _kernel.probe_epoch(xs, targets, np.array(order, dtype=np.int64), w, b, 0.3, 0.0)
        assert (w == 0.5).all() and (b == 0.25).all()

    @pytest.mark.parametrize("mode", ["exclusive", "multilabel"])
    def test_train_classifier_runs_the_kernel(self, kernel_library, monkeypatch, mode):
        def no_reference(*args):
            raise AssertionError("train_classifier fell back to the reference loop")

        monkeypatch.setattr(classifier, "_reference_epoch", no_reference)
        corpus, emb, _, _ = _probe_setup(mode)
        cfg = ClassifierConfig(epochs=7, lr=0.3, seed=5, l2=0.01)
        model = train_classifier(corpus, emb, cfg, mode)
        w, b = _loop_before_the_kernel(corpus, emb, cfg, mode)
        np.testing.assert_allclose(model.weights, w, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.bias, b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("path", ["kernel_library", "no_kernel"])
    @pytest.mark.parametrize("mode", ["exclusive", "multilabel"])
    def test_divergence_stops_after_the_epoch_it_shows_in(self, request, monkeypatch,
                                                         path, mode):
        request.getfixturevalue(path)
        corpus, emb, _, _ = _probe_setup(mode)
        losses = []
        for owner, name in ((_kernel, "probe_epoch"), (classifier, "_reference_epoch")):
            epoch = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, epoch=epoch: losses.append(epoch(*a)) or losses[-1])
        with pytest.raises(FloatingPointError,
                           match="^non-finite probe parameters after epoch 1$"):
            train_classifier(corpus, emb, ClassifierConfig(epochs=50, lr=1e308), mode)
        # an unavailable kernel returns None and trains nothing
        assert len([loss for loss in losses if loss is not None]) == 1

    @pytest.mark.parametrize("mode", ["exclusive", "multilabel"])
    def test_fallback_gives_the_bytes_of_the_reference_loop(self, no_kernel, mode):
        corpus, emb, _, _ = _probe_setup(mode)
        cfg = ClassifierConfig(epochs=7, lr=0.3, seed=5, l2=0.01)
        model = train_classifier(corpus, emb, cfg, mode)
        w, b = _loop_before_the_kernel(corpus, emb, cfg, mode)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.tobytes() == b.tobytes()

    @pytest.mark.parametrize("path", ["kernel_library", "no_kernel"])
    @pytest.mark.parametrize("mode", ["exclusive", "multilabel"])
    def test_reruns_give_identical_bytes(self, request, path, mode):
        request.getfixturevalue(path)
        corpus, emb, _, _ = _probe_setup(mode)
        cfg = ClassifierConfig(epochs=5, lr=0.3, seed=9)
        m1 = train_classifier(corpus, emb, cfg, mode)
        m2 = train_classifier(corpus, emb, cfg, mode)
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert m1.bias.tobytes() == m2.bias.tobytes()

    def test_logs_the_same_run_summary_on_both_paths(self, kernel_library, monkeypatch,
                                                     caplog):
        corpus, emb, _, _ = _probe_setup("multilabel")
        cfg = ClassifierConfig(epochs=4, lr=0.3, seed=2)
        with caplog.at_level(logging.INFO, logger="classvec"):
            train_classifier(corpus, emb, cfg, "multilabel")
            disable_kernel(monkeypatch)
            train_classifier(corpus, emb, cfg, "multilabel")
        lines = [r.getMessage() for r in caplog.records if r.name == "classvec.classifier"]
        pattern = (r"probe done: 4 epochs, 60 SGD steps, mean loss (\d+\.\d{4}) first "
                   r"epoch, (\d+\.\d{4}) last epoch, \d+ steps/s \((.+)\)")
        runs = [re.fullmatch(pattern, line).groups() for line in lines]
        assert [r[2] for r in runs] == ["compiled kernel", "numpy reference"]
        assert runs[0][:2] == runs[1][:2]
        assert float(runs[0][1]) < float(runs[0][0])
