"""Unit tests for class-conditioned CBOW fine-tuning."""
from __future__ import annotations

import logging
import math

import numpy as np
import pytest

from classvec import _kernel, trainer
from classvec.corpus import Document, from_documents
from classvec.trainer import (
    NS_RESAMPLE_ATTEMPTS,
    ClassVectors,
    FinetuneConfig,
    build_noise_table,
    finetune,
    init_state,
    lr_schedule,
    ns_loss_and_grads,
    train_document,
)
from classvec.trainer import _sample_negatives
from classvec.vocab import build_vocab, merge

from _constructions import cos, frequency_corpus, random_embedding


def small_setup(n_docs=20, doc_len=9, n_vocab=30, dim=8, emb_seed=100,
                corpus_seed=200, merge_seed=3):
    """A small fully-covered corpus over a random pretrained set."""
    rng = np.random.default_rng(emb_seed)
    emb = random_embedding(rng, n_vocab, dim)
    crng = np.random.default_rng(corpus_seed)
    docs = []
    for i in range(n_docs):
        toks = tuple(f"t{j}" for j in crng.integers(0, n_vocab, doc_len))
        docs.append(Document(toks, ("one" if i % 2 else "two",)))
    corpus = from_documents(docs)
    model = merge(emb, build_vocab(corpus), seed=merge_seed)
    return model, corpus


def _position_mean_loss(state, corpus, eval_negs):
    """Mean per-position loss under frozen evaluation negatives."""
    cfg = state.cfg
    total, i = 0.0, 0
    for doc in corpus.docs:
        in_idx = np.array([state.input_index[t] for t in doc.tokens])
        out_idx = np.array([state.output_index[t] for t in doc.tokens])
        for label in doc.labels:
            li = state.class_index[label]
            for p in range(len(in_idx)):
                lo = max(0, p - cfg.window)
                hi = min(len(in_idx), p + cfg.window + 1)
                ctx = np.concatenate([in_idx[lo:p], in_idx[p + 1:hi]])
                h = (state.class_vectors[li] + state.input_matrix[ctx].sum(axis=0)) / (
                    1 + len(ctx)
                )
                loss, _, _ = ns_loss_and_grads(h, int(out_idx[p]), eval_negs[i], state)
                total += loss
                i += 1
    return total / i


class TestFinetuneConfig:
    def test_defaults(self):
        cfg = FinetuneConfig()
        assert (cfg.epochs, cfg.window, cfg.negative) == (10, 5, 5)
        assert (cfg.alpha0, cfg.alpha_min, cfg.seed) == (0.025, 0.0001, 1)
        assert (cfg.subsample_threshold, cfg.shuffle) == (None, False)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(window=0),
            dict(negative=0),
            dict(alpha0=0.0001, alpha_min=0.0001),
            dict(alpha_min=0.0),
            dict(alpha_min=-1.0),
            dict(subsample_threshold=0.0),
            dict(subsample_threshold=-1e-3),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FinetuneConfig(**kwargs)


class TestNoiseTable:
    def test_two_token_oracle(self):
        # frequencies 8 and 1: P(first) = 8^0.75 / (8^0.75 + 1)
        corpus = from_documents([Document(("a",) * 8 + ("b",), ("c",))])
        table = build_noise_table(build_vocab(corpus))
        np.testing.assert_allclose(table, [0.8262932434158183, 1.0], rtol=1e-12)

    def test_cumulative_and_normalized(self):
        rng = np.random.default_rng(0)
        toks = tuple(f"t{j}" for j in rng.integers(0, 40, 500))
        corpus = from_documents([Document(toks, ("c",))])
        table = build_noise_table(build_vocab(corpus))
        assert np.all(np.diff(table) > 0)
        assert abs(table[-1] - 1.0) <= 1e-9

    def test_sampling_matches_distribution(self):
        # frequencies 1, 2, 4, 8 -> P_i proportional to f_i^0.75
        toks = ("a",) + ("b",) * 2 + ("c",) * 4 + ("d",) * 8
        corpus = from_documents([Document(toks, ("c",))])
        table = build_noise_table(build_vocab(corpus))
        probs = np.diff(table, prepend=0.0)
        rng = np.random.default_rng(31)
        draws = np.searchsorted(table, rng.random(1_000_000), side="right")
        counts = np.bincount(np.minimum(draws, 3), minlength=4) / 1e6
        np.testing.assert_allclose(counts, probs, atol=2.5e-3)


class TestLrSchedule:
    def test_linear_decay_and_floor(self):
        cfg = FinetuneConfig(alpha0=0.025, alpha_min=0.0001)
        assert lr_schedule(cfg, 0.0) == 0.025
        assert lr_schedule(cfg, 0.5) == 0.0125
        assert lr_schedule(cfg, 1.0) == 0.0001
        assert lr_schedule(cfg, 0.99) == pytest.approx(0.025 * 0.01, rel=1e-9)
        assert lr_schedule(cfg, 0.999) == 0.0001  # decay hits the floor
        cfg = FinetuneConfig(alpha0=0.01, alpha_min=0.009)
        assert lr_schedule(cfg, 0.5) == 0.009  # floored
        cfg = FinetuneConfig(alpha0=0.025, alpha_min=0.0001)
        np.testing.assert_array_equal(
            lr_schedule(cfg, np.array([0.0, 0.5, 0.999, 1.0])),
            [0.025, 0.0125, 0.0001, 0.0001],
        )

    def test_rejects_out_of_range_progress(self):
        cfg = FinetuneConfig()
        for bad in (-0.01, 1.01, np.array([0.5, 1.01])):
            with pytest.raises(ValueError, match="progress"):
                lr_schedule(cfg, bad)


class TestNsLossAndGrads:
    def _state(self, n_out=12, dim=6, negative=5, out_seed=None):
        model, corpus = small_setup(n_vocab=n_out, dim=dim)
        state = init_state(model, corpus, FinetuneConfig(negative=negative))
        if out_seed is not None:
            rng = np.random.default_rng(out_seed)
            state.output_matrix = rng.normal(0, 1, state.output_matrix.shape)
        return state

    def test_zero_outputs_oracle(self):
        # with all output vectors at zero every logit is 0, so the loss is
        # (1 + k) * ln 2, dL/dh vanishes and dL/du = err outer h
        state = self._state()
        h = np.arange(1.0, 7.0)
        k = 4
        loss, grad_h, grad_u = ns_loss_and_grads(h, 2, [0, 1, 3, 5], state)
        np.testing.assert_allclose(loss, (1 + k) * math.log(2), rtol=1e-12)
        np.testing.assert_array_equal(grad_h, np.zeros(6))
        err = np.array([-0.5, 0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(grad_u, np.outer(err, h), rtol=1e-12)

    def test_hand_computed_instance(self):
        state = self._state(dim=2, out_seed=None)
        state.output_matrix = np.zeros_like(state.output_matrix)
        state.output_matrix[3] = [1.0, -2.0]   # center
        state.output_matrix[7] = [0.5, 0.25]   # negative
        h = np.array([2.0, 1.0])
        loss, grad_h, grad_u = ns_loss_and_grads(h, 3, [7], state)
        z_c, z_n = 1.0 * 2 - 2.0 * 1, 0.5 * 2 + 0.25 * 1
        sig = lambda v: 1.0 / (1.0 + math.exp(-v))
        expected = -math.log(sig(z_c)) - math.log(sig(-z_n))
        np.testing.assert_allclose(loss, expected, rtol=1e-12)
        err = np.array([sig(z_c) - 1.0, sig(z_n)])
        np.testing.assert_allclose(
            grad_h, err[0] * np.array([1.0, -2.0]) + err[1] * np.array([0.5, 0.25]),
            rtol=1e-12,
        )
        np.testing.assert_allclose(grad_u, np.outer(err, h), rtol=1e-12)

    def test_gradient_step_decreases_loss(self):
        state = self._state(out_seed=77)
        rng = np.random.default_rng(78)
        for _ in range(20):
            h = rng.normal(0, 1, 6)
            center = int(rng.integers(0, 12))
            negatives = [int(j) for j in rng.choice(12, size=3, replace=False)
                         if j != center][:2]
            loss0, grad_h, grad_u = ns_loss_and_grads(h, center, negatives, state)
            alpha = 0.05
            rows = [center, *negatives]
            saved = state.output_matrix[rows].copy()
            state.output_matrix[rows] -= alpha * grad_u
            loss1, _, _ = ns_loss_and_grads(h - alpha * grad_h, center, negatives, state)
            state.output_matrix[rows] = saved
            assert loss1 < loss0


class TestSampleNegatives:
    """The block sampler behind the reference pass (the kernel repeats it)."""

    def _block(self, n_vocab, centers, seed):
        model, corpus = small_setup(n_vocab=n_vocab)
        table = init_state(model, corpus, FinetuneConfig()).noise_table
        uniforms = np.random.default_rng(seed).random(
            (len(centers), 5, NS_RESAMPLE_ATTEMPTS)
        )
        return table, uniforms, _sample_negatives(table, centers, uniforms)

    def test_never_returns_center_and_stays_in_range(self):
        centers = np.random.default_rng(55).integers(0, 10, 400)
        table, _, negs = self._block(10, centers, seed=55)
        assert negs.shape == (400, 5)
        drawn = negs >= 0
        assert np.all(negs[~drawn] == -1)
        assert np.all(negs[drawn] < len(table))
        assert not np.any(drawn & (negs == centers[:, None]))

    def test_usually_draws_full_count(self):
        _, _, negs = self._block(30, np.zeros(200, dtype=np.int64), seed=56)
        assert (negs >= 0).sum() >= 0.97 * 5 * 200

    def test_takes_the_first_draw_off_the_center(self):
        centers = np.random.default_rng(57).integers(0, 4, 300)
        table, uniforms, negs = self._block(4, centers, seed=57)
        for p, center in enumerate(centers):
            for k in range(5):
                rows = [min(int(np.searchsorted(table, u, side="right")), len(table) - 1)
                        for u in uniforms[p, k]]
                off = [r for r in rows if r != center]
                assert negs[p, k] == (off[0] if off else -1)


class TestTrainDocument:
    def test_position_accounting(self):
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig(epochs=1))
        doc = corpus.docs[0]
        loss, trained, shortfall = train_document(state, doc)
        assert state.positions_done == trained == len(doc.tokens)
        assert loss > 0 and shortfall == 0

    def test_multilabel_runs_once_per_label(self):
        rng = np.random.default_rng(60)
        emb = random_embedding(rng, 6, 4)
        docs = [Document(("t0", "t1", "t2"), ("x", "y")),
                Document(("t3", "t4"), ("x",))]
        corpus = from_documents(docs)
        model = merge(emb, build_vocab(corpus), seed=1)
        state = init_state(model, corpus, FinetuneConfig(epochs=1))
        assert state.total_positions == 3 * 2 + 2
        train_document(state, docs[0])
        assert state.positions_done == 6

    def test_empty_context_leaves_input_matrix_untouched(self):
        # a single-token document has no context words, so only the class
        # vector and the center's output row may receive updates
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig())
        before = state.input_matrix.copy()
        loss, _, shortfall = train_document(state, Document(("t3",), ("one",)))
        # all-zero output vectors: every logit is 0, each term costs ln 2
        assert shortfall == 0
        np.testing.assert_allclose(loss, 6 * math.log(2), rtol=1e-12)
        np.testing.assert_array_equal(state.input_matrix, before)
        assert state.output_matrix.any()

    def test_class_vector_moves_once_outputs_are_nonzero(self):
        # the very first update sees all-zero output vectors, so dL/dh = 0;
        # from the second pass on the class vector must move
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig())
        doc = Document(("t3",), ("one",))
        before = state.class_vectors.copy()
        train_document(state, doc)
        np.testing.assert_array_equal(state.class_vectors, before)
        train_document(state, doc)
        assert not np.array_equal(state.class_vectors, before)

    def test_alpha_follows_schedule(self):
        model, corpus = small_setup(n_docs=1, doc_len=2)
        state = init_state(model, corpus, FinetuneConfig(epochs=1))
        train_document(state, corpus.docs[0])
        # two total positions: the last one trains at alpha0 * (1 - 1/2)
        assert state.total_positions == 2
        assert state.alpha == 0.0125

    def test_unmerged_token_is_an_error(self):
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig())
        with pytest.raises(ValueError, match="merge\\(\\) must precede"):
            train_document(state, Document(("never-seen",), ("one",)))


class TestInitState:
    def test_class_vectors_use_rng_head(self):
        model, corpus = small_setup(dim=8)
        state = init_state(model, corpus, FinetuneConfig(seed=9))
        rng = np.random.default_rng(9)
        expected = (rng.random((2, 8)) - 0.5) / 8
        np.testing.assert_array_equal(state.class_vectors, expected)

    def test_matrices_and_totals(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=4)
        state = init_state(model, corpus, cfg)
        vocab = build_vocab(corpus)
        assert state.output_matrix.shape == (len(vocab), 8)
        assert not state.output_matrix.any()  # zero-initialized
        assert state.input_matrix.dtype == np.float64
        np.testing.assert_array_equal(
            state.input_matrix, model.embedding.matrix.astype(np.float64)
        )
        expected_total = 4 * sum(len(d.tokens) * len(d.labels) for d in corpus.docs)
        assert state.total_positions == expected_total

    def test_requires_merged_model(self):
        rng = np.random.default_rng(61)
        emb = random_embedding(rng, 3, 4)
        corpus = from_documents([Document(("t0", "novel"), ("c",))])
        with pytest.raises(ValueError, match="merge\\(\\) must precede"):
            init_state(
                type("M", (), {"embedding": emb, "trainable_mask": None})(),
                corpus,
                FinetuneConfig(),
            )


class TestFinetune:
    def test_deterministic_in_seed(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, seed=5)
        t1, c1 = finetune(model, corpus, cfg)
        t2, c2 = finetune(model, corpus, cfg)
        t3, _ = finetune(model, corpus, FinetuneConfig(epochs=2, seed=6))
        assert t1.matrix.tobytes() == t2.matrix.tobytes()
        assert c1.matrix.tobytes() == c2.matrix.tobytes()
        assert t1.matrix.tobytes() != t3.matrix.tobytes()

    def test_rows_outside_corpus_stay_frozen(self):
        rng = np.random.default_rng(62)
        emb = random_embedding(rng, 12, 5)
        docs = [Document(("t0", "t1", "t2", "t1"), ("c",)),
                Document(("t2", "t0", "extra"), ("d",))]
        corpus = from_documents(docs)
        model = merge(emb, build_vocab(corpus), seed=1)
        tuned, _ = finetune(model, corpus, FinetuneConfig(epochs=3))
        for w in emb.words:
            if w not in {"t0", "t1", "t2"}:
                assert tuned.vector(w).tobytes() == emb.vector(w).tobytes()
        assert tuned.matrix[:3].tobytes() != emb.matrix[:3].tobytes()

    def test_vanishing_learning_rate_changes_nothing(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=1, alpha0=2e-12, alpha_min=1e-12)
        tuned, _ = finetune(model, corpus, cfg)
        assert tuned.matrix.tobytes() == model.embedding.matrix.tobytes()

    def test_mean_position_loss_decreases_over_epochs(self):
        model, corpus = small_setup()
        epochs = 6
        state = init_state(model, corpus, FinetuneConfig(
            epochs=epochs, alpha0=0.003, alpha_min=1e-5, seed=1
        ))
        n_pos = sum(len(d.tokens) * len(d.labels) for d in corpus.docs)
        erng = np.random.default_rng(999)
        eval_negs = [
            list(erng.integers(0, state.output_matrix.shape[0], 5))
            for _ in range(n_pos)
        ]
        losses = [_position_mean_loss(state, corpus, eval_negs)]
        for _ in range(epochs):
            for doc in corpus.docs:
                train_document(state, doc)
            losses.append(_position_mean_loss(state, corpus, eval_negs))
        # all-zero outputs score (1 + 5) ln 2 per position before training
        np.testing.assert_allclose(losses[0], 6 * math.log(2), rtol=1e-12)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_returns_float32_over_merged_vocabulary(self):
        model, corpus = small_setup()
        tuned, cv = finetune(model, corpus, FinetuneConfig(epochs=1))
        assert tuned.words == model.embedding.words
        assert tuned.matrix.dtype == np.float32
        assert cv.classes == corpus.classes
        assert cv.matrix.dtype == np.float32
        assert cv.matrix.shape == (2, 8)

    def test_unmerged_corpus_is_an_error(self):
        rng = np.random.default_rng(63)
        emb = random_embedding(rng, 3, 4)
        corpus = from_documents([Document(("t0", "novel"), ("c",))])
        bad_model = merge(emb, build_vocab(from_documents(
            [Document(("t0",), ("c",))]
        )), seed=1)
        with pytest.raises(ValueError, match="merge\\(\\) must precede"):
            finetune(bad_model, corpus, FinetuneConfig(epochs=1))

    def test_logs_one_line_per_epoch(self, caplog):
        model, corpus = small_setup(n_docs=4)
        with caplog.at_level(logging.INFO, logger="classvec.trainer"):
            finetune(model, corpus, FinetuneConfig(epochs=2))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "classvec.trainer"]
        assert any("epoch 1/2" in l for l in lines)
        assert any("epoch 2/2" in l for l in lines)
        for field in ("mean loss", "alpha", "positions/s",
                      "short of negatives", "discarded"):
            assert all(field in l for l in lines if "epoch" in l)

    def test_divergent_run_raises(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=1, alpha0=1e30, alpha_min=1.0)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                finetune(model, corpus, cfg)

    def test_shuffle_is_seeded_and_changes_the_run(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, shuffle=True, seed=4)
        t1, _ = finetune(model, corpus, cfg)
        t2, _ = finetune(model, corpus, cfg)
        t3, _ = finetune(model, corpus, FinetuneConfig(epochs=2, seed=4))
        assert t1.matrix.tobytes() == t2.matrix.tobytes()
        assert t1.matrix.tobytes() != t3.matrix.tobytes()


class TestSubsampling:
    def test_keep_probability_formula(self):
        # keep = min(1, sqrt(t/f) + t/f) with f the relative frequency
        toks = ("a",) * 90 + ("b",) * 10
        corpus = from_documents([Document(toks, ("c",))])
        rng = np.random.default_rng(65)
        emb = random_embedding(rng, 2, 4)
        model = merge(emb, build_vocab(corpus), seed=1)
        t = 0.01
        state = init_state(model, corpus, FinetuneConfig(subsample_threshold=t))
        f = np.array([0.9, 0.1])
        expected = np.minimum(1.0, np.sqrt(t / f) + t / f)
        np.testing.assert_allclose(state.keep_prob, expected, rtol=1e-12)

    def test_huge_threshold_keeps_everything(self):
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig(subsample_threshold=1e6))
        np.testing.assert_array_equal(state.keep_prob, np.ones(len(state.keep_prob)))

    def test_discarded_positions_still_advance_the_schedule(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=1, subsample_threshold=1e-9)
        state = init_state(model, corpus, cfg)
        for doc in corpus.docs:
            train_document(state, doc)
        assert state.positions_done == state.total_positions

    def test_subsampled_run_is_deterministic(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, subsample_threshold=0.05, seed=2)
        t1, _ = finetune(model, corpus, cfg)
        t2, _ = finetune(model, corpus, cfg)
        assert t1.matrix.tobytes() == t2.matrix.tobytes()


class TestClassVectors:
    def test_accessor_and_validation(self):
        cv = ClassVectors(("a", "b"), np.eye(2, 3, dtype=np.float32))
        np.testing.assert_array_equal(cv.vector("b"), [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            ClassVectors(("a",), np.eye(2, 3, dtype=np.float32))
        with pytest.raises(ValueError):
            ClassVectors(("a",), np.array([[np.inf]], dtype=np.float32))


class TestFrequencyMajority:
    def test_split_marker_tracks_its_majority_class(self):
        """A marker split 9:1 between the classes ends up nearer the class
        vector of its majority side (and the 1:9 marker nearer the other).

        Needs a gentle learning rate: the construction's large pretrained
        norms saturate the sigmoids at the default alpha0, which inverts
        proximity instead of establishing it.
        """
        emb, corpus = frequency_corpus()
        model = merge(emb, build_vocab(corpus), seed=11)
        for seed in (0, 1, 2):
            cfg = FinetuneConfig(seed=seed, alpha0=0.0025, alpha_min=1e-5)
            tuned, cv = finetune(model, corpus, cfg)
            y, z = tuned.vector("y"), tuned.vector("z")
            a, b = cv.vector("A"), cv.vector("B")
            assert cos(y, a) - cos(y, b) > 0.1
            assert cos(z, b) - cos(z, a) > 0.1


@pytest.fixture()
def kernel(kernel_library):
    return _kernel.load()


def _kernel_setup(skewed: bool):
    """Pretrained set with frozen rows, an unseen token, multilabel
    documents and repeated context tokens; ``skewed`` makes one token
    dominate the noise distribution so that resampling often runs out."""
    rng = np.random.default_rng(70)
    emb = random_embedding(rng, 24, 7)
    crng = np.random.default_rng(71)
    docs = []
    for i in range(16):
        if skewed:
            toks = tuple("t0" if crng.random() < 0.9 else f"t{crng.integers(1, 4)}"
                         for _ in range(12))
        else:
            toks = tuple(f"t{j}" for j in crng.integers(0, 16, 11))
        if i == 3:
            toks += ("novel",)
        labels = ("one", "two") if i % 5 == 0 else (("one",) if i % 2 else ("two",))
        docs.append(Document(toks, labels))
    corpus = from_documents(docs)
    return merge(emb, build_vocab(corpus), seed=2), corpus


def _train_two_epochs(model, corpus, cfg, label_pass):
    state = init_state(model, corpus, cfg)
    state.kernel = label_pass
    # freeze one corpus row too, so the trainable mask matters in context
    state.trainable = state.trainable.copy()
    state.trainable[state.input_index["t1"]] = False
    stats = [train_document(state, d) for _ in range(2) for d in corpus.docs]
    return state, np.array(stats)


class TestKernel:
    # 40 negatives over ~17 noise rows: repeated output rows at every step
    @pytest.mark.parametrize("negative", [4, 40])
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("threshold", [None, 0.01])
    def test_matches_reference_on_identical_draws(
        self, kernel, negative, skewed, threshold
    ):
        model, corpus = _kernel_setup(skewed)
        cfg = FinetuneConfig(epochs=2, window=3, negative=negative, alpha0=0.05,
                             subsample_threshold=threshold, seed=8)
        ref, ref_stats = _train_two_epochs(model, corpus, cfg, None)
        fast, fast_stats = _train_two_epochs(model, corpus, cfg, kernel)
        for name in ("input_matrix", "output_matrix", "class_vectors"):
            np.testing.assert_allclose(
                getattr(fast, name), getattr(ref, name), rtol=0, atol=1e-10
            )
        frozen = ~ref.trainable
        assert frozen.sum() > (~model.trainable_mask).sum() > 0
        assert fast.input_matrix[frozen].tobytes() == ref.input_matrix[frozen].tobytes()
        initial = model.embedding.matrix[frozen].astype(np.float64)
        assert ref.input_matrix[frozen].tobytes() == initial.tobytes()
        assert (fast.positions_done, fast.alpha) == (ref.positions_done, ref.alpha)
        # positions trained and short of negatives agree exactly, losses closely
        np.testing.assert_array_equal(fast_stats[:, 1:], ref_stats[:, 1:])
        np.testing.assert_allclose(fast_stats[:, 0], ref_stats[:, 0], rtol=1e-9)
        trained = ref_stats[:, 1].sum()
        if threshold:
            assert 0 < trained < ref.positions_done
        else:
            assert trained == ref.positions_done
        assert (ref_stats[:, 2].sum() > 0) == skewed

    def test_finetune_runs_the_kernel_byte_deterministically(self, kernel, monkeypatch):
        def no_reference(*args):
            raise AssertionError("finetune fell back to the reference pass")

        monkeypatch.setattr(trainer, "_reference_pass", no_reference)
        model, corpus = _kernel_setup(skewed=False)
        cfg = FinetuneConfig(epochs=2, subsample_threshold=0.01, seed=9)
        t1, c1 = finetune(model, corpus, cfg)
        t2, c2 = finetune(model, corpus, cfg)
        assert t1.matrix.tobytes() == t2.matrix.tobytes()
        assert c1.matrix.tobytes() == c2.matrix.tobytes()

    def test_finetune_matches_train_document_in_shuffled_order(self, kernel):
        # finetune maps every document to rows once per run; train_document
        # maps on each call; both must train the same bytes
        model, corpus = _kernel_setup(skewed=False)
        cfg = FinetuneConfig(epochs=2, subsample_threshold=0.01, seed=12, shuffle=True)
        tuned, classes = finetune(model, corpus, cfg)
        ref = init_state(model, corpus, cfg)
        ref.kernel = kernel
        shuffle_rng = np.random.default_rng((cfg.seed, trainer._SHUFFLE_STREAM))
        order = np.arange(len(corpus.docs))
        for _ in range(cfg.epochs):
            shuffle_rng.shuffle(order)
            for di in order:
                train_document(ref, corpus.docs[di])
        assert tuned.matrix.tobytes() == ref.input_matrix.astype(np.float32).tobytes()
        assert classes.matrix.tobytes() == ref.class_vectors.astype(np.float32).tobytes()

    def test_rejects_out_of_range_indices(self, kernel):
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig(negative=2))
        before = state.output_matrix.copy()
        idx = np.array([0, len(state.output_matrix)], dtype=np.int64)
        uniforms = np.full((2, 2, NS_RESAMPLE_ATTEMPTS), 0.5)
        with pytest.raises(IndexError):
            kernel(state, idx, idx, 0, np.full(2, 0.025), uniforms)
        np.testing.assert_array_equal(state.output_matrix, before)

    @pytest.mark.parametrize("name, spoil", [
        ("input_matrix", lambda a: a.astype(np.float32)),
        ("output_matrix", np.asfortranarray),
        ("class_vectors", lambda a: np.lib.stride_tricks.as_strided(a, writeable=False)),
        ("noise_table", lambda a: np.repeat(a, 2)[::2]),
    ])
    def test_checks_dtype_layout_and_writeability_before_the_call(
        self, kernel, name, spoil
    ):
        model, corpus = small_setup()
        state = init_state(model, corpus, FinetuneConfig(negative=2))
        setattr(state, name, spoil(getattr(state, name)))
        before = [a.copy() for a in (state.input_matrix, state.output_matrix,
                                     state.class_vectors)]
        idx = np.arange(2, dtype=np.int64)
        uniforms = np.full((2, 2, NS_RESAMPLE_ATTEMPTS), 0.5)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel(state, idx, idx, 0, np.full(2, 0.025), uniforms)
        after = (state.input_matrix, state.output_matrix, state.class_vectors)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()
        # the same call on intact arrays trains
        state = init_state(model, corpus, FinetuneConfig(negative=2))
        kernel(state, idx, idx, 0, np.full(2, 0.025), uniforms)
        assert state.output_matrix.tobytes() != before[1].tobytes()

    @pytest.mark.parametrize("spoil", [
        lambda a: a.astype(np.float64),
        lambda a: np.repeat(a, 2, axis=1)[:, ::2],
    ])
    def test_format_rows_checks_dtype_and_layout(self, kernel_library, spoil):
        with pytest.raises(ValueError, match="C-contiguous"):
            _kernel.format_rows(spoil(np.ones((3, 2), dtype=np.float32)))

    def test_unavailable_kernel_falls_back_to_the_reference(self, no_kernel, caplog):
        model, corpus = _kernel_setup(skewed=False)
        cfg = FinetuneConfig(epochs=2, seed=10)
        with caplog.at_level(logging.INFO, logger="classvec"):
            tuned, _ = finetune(model, corpus, cfg)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
        assert any("epoch 2/2" in r.getMessage() for r in caplog.records)
        ref = init_state(model, corpus, cfg)
        for _ in range(2):
            for doc in corpus.docs:
                train_document(ref, doc)
        assert tuned.matrix.tobytes() == ref.input_matrix.astype(np.float32).tobytes()

    def test_failed_build_raises_and_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel.sysconfig, "get_config_var", lambda name: "false")
        with pytest.raises(OSError, match="false exited 1"):
            _kernel.compile_library(tmp_path / "kernel.so")
        assert list(tmp_path.iterdir()) == []
