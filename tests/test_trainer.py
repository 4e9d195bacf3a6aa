"""Unit tests for class-conditioned CBOW fine-tuning."""
from __future__ import annotations

import io
import logging
import math
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sysconfig
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from classvec import _kernel, trainer
from classvec.corpus import Document, from_documents
from classvec.embedding_io import save_binary
from classvec.trainer import (
    NS_RESAMPLE_ATTEMPTS,
    ClassVectors,
    FinetuneConfig,
    build_noise_table,
    finetune,
    init_state,
    lr_schedule,
    ns_loss_and_grads,
)
from classvec.trainer import _sample_negatives
from classvec import vocab as vocab_module
from classvec.vocab import MergedModel, TunedEmbedding, build_vocab, merge

from _constructions import (
    cos,
    disable_kernel,
    frequency_corpus,
    random_embedding,
    splitmix64,
    splitmix_uniform,
)


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


class _Discard(io.RawIOBase):
    """A sink that keeps nothing of what is written to it."""

    def writable(self):
        return True

    def write(self, data):
        return len(data)


def _tuned_set(model, rows):
    """The merged vectors with the tuned corpus ``rows`` in place."""
    return TunedEmbedding(model, rows).embedding_set()


def _train_doc(state, doc):
    """Train one document's label passes in a call of their own."""
    return trainer._train_passes(state, trainer._doc_passes(state, doc))


def _position_mean_loss(state, corpus, eval_negs):
    """Mean per-position loss under frozen evaluation negatives."""
    cfg = state.cfg
    total, i = 0.0, 0
    for doc in corpus.docs:
        idx = np.array([state.index[t] for t in doc.tokens])
        for label in doc.labels:
            li = state.class_index[label]
            for p in range(len(idx)):
                lo = max(0, p - cfg.window)
                hi = min(len(idx), p + cfg.window + 1)
                ctx = np.concatenate([idx[lo:p], idx[p + 1:hi]])
                h = (state.class_vectors[li] + state.input_matrix[ctx].sum(axis=0)) / (
                    1 + len(ctx)
                )
                loss, _, _ = ns_loss_and_grads(h, int(idx[p]), eval_negs[i], state)
                total += loss
                i += 1
    return total / i


class TestFinetuneConfig:
    def test_defaults(self):
        cfg = FinetuneConfig()
        assert (cfg.epochs, cfg.window, cfg.negative) == (10, 5, 5)
        assert (cfg.alpha0, cfg.alpha_min, cfg.seed) == (0.025, 0.0001, 1)
        assert cfg.shuffle is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epochs=0),
            dict(window=0),
            dict(negative=0),
            dict(alpha0=0.0001, alpha_min=0.0001),
            dict(alpha_min=0.0),
            dict(alpha_min=-1.0),
            dict(alpha0=0.001, alpha_min=0.01),
            dict(alpha0=float("nan")),
            dict(seed=-1),
            dict(seed=2**64),
            dict(seed=1.5),
            dict(alpha0=float("inf")),
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
        state = init_state(model, FinetuneConfig(negative=negative))
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

    def test_saturated_logits(self):
        # exp(-z) overflows at the center's z = -1000: its sigmoid is 0
        # there, as in the kernel, and the negative's at z = 1000 is 1
        state = self._state(dim=2)
        state.output_matrix[3] = [-500.0, 0.0]
        state.output_matrix[7] = [500.0, 0.0]
        loss, grad_h, grad_u = ns_loss_and_grads(np.array([2.0, 0.0]), 3, [7], state)
        assert loss == 2000.0
        assert grad_h.tolist() == [1000.0, 0.0]
        assert grad_u.tolist() == [[-2.0, 0.0], [2.0, 0.0]]

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


class TestNoiseUniforms:
    """The counter-based generator behind every seeded draw of the package
    (the kernel repeats it in C for the negatives)."""

    KEYS = [0, 1, 0x5EED, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]

    @pytest.mark.parametrize("key", KEYS)
    def test_matches_pure_python_splitmix64(self, key):
        counters = [0, 1, 2**32 - 1, 2**32, 2**53]
        got = _kernel.uniforms(key, np.array(counters, dtype=np.uint64))
        assert got.tolist() == [splitmix_uniform(key, c) for c in counters]

    def test_uniforms_lie_in_the_unit_interval(self):
        for key in self.KEYS:
            u = _kernel.uniforms(key, np.arange(100_000, dtype=np.uint64))
            assert u.min() >= 0.0 and u.max() < 1.0
            assert abs(u.mean() - 0.5) < 0.01


class TestStreams:
    """One key per use of a seed, and the permutations drawn under a key."""

    STREAMS = (_kernel.STREAM_UNSEEN, _kernel.STREAM_CLASSES, _kernel.STREAM_NOISE,
               _kernel.STREAM_SHUFFLE, _kernel.STREAM_PROBE)

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_keys_are_splitmix64_outputs_of_the_seed(self, seed):
        keys = [_kernel.stream_key(seed, s) for s in self.STREAMS]
        assert keys == [splitmix64(seed, s) for s in self.STREAMS]
        assert len(set(keys)) == len(self.STREAMS)
        assert all(type(k) is int for k in keys)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            _kernel.stream_key(seed, _kernel.STREAM_NOISE)

    def test_non_integer_seeds_are_rejected(self):
        # SplitMix64 would truncate 1.5 to seed 1; numpy integers still pass
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            _kernel.stream_key(1.5, _kernel.STREAM_NOISE)
        assert (_kernel.stream_key(np.uint64(7), _kernel.STREAM_NOISE)
                == _kernel.stream_key(7, _kernel.STREAM_NOISE))

    def test_permutations_are_seeded_and_differ_from_draw_to_draw(self):
        n = 50
        orders = [_kernel.permutation(0x5EED, n, draw) for draw in range(4)]
        for order in orders:
            assert order.dtype == np.int64 and sorted(order.tolist()) == list(range(n))
        assert len({tuple(o.tolist()) for o in orders}) == 4
        assert _kernel.permutation(0x5EED, n, 2).tolist() == orders[2].tolist()
        assert _kernel.permutation(0x5EEE, n, 2).tolist() != orders[2].tolist()
        # the stable argsort of the uniforms of counters draw * n onwards
        u = [splitmix_uniform(0x5EED, 2 * n + i) for i in range(n)]
        assert orders[2].tolist() == sorted(range(n), key=u.__getitem__)
        assert _kernel.permutation(1, 0, 3).tolist() == []


class TestSampleNegatives:
    """The block sampler behind the reference pass (the kernel repeats it)."""

    def _block(self, n_vocab, centers, key, first=0):
        model, corpus = small_setup(n_vocab=n_vocab)
        table = init_state(model, FinetuneConfig()).noise_table
        return table, _sample_negatives(table, centers, key, first, 5)

    def test_never_returns_center_and_stays_in_range(self):
        centers = np.random.default_rng(55).integers(0, 10, 400)
        table, negs = self._block(10, centers, key=55)
        assert negs.shape == (400, 5)
        drawn = negs >= 0
        assert np.all(negs[~drawn] == -1)
        assert np.all(negs[drawn] < len(table))
        assert not np.any(drawn & (negs == centers[:, None]))

    def test_usually_draws_full_count(self):
        _, negs = self._block(30, np.zeros(200, dtype=np.int64), key=56)
        assert (negs >= 0).sum() >= 0.97 * 5 * 200

    def test_takes_the_first_draw_off_the_center(self):
        centers = np.random.default_rng(57).integers(0, 4, 300)
        first = 2**32 + 7
        table, negs = self._block(4, centers, key=57, first=first)
        for p, center in enumerate(centers):
            for k in range(5):
                counter = ((first + p) * 5 + k) * NS_RESAMPLE_ATTEMPTS
                rows = [min(int(np.searchsorted(table, splitmix_uniform(57, counter + a),
                                                side="right")), len(table) - 1)
                        for a in range(NS_RESAMPLE_ATTEMPTS)]
                off = [r for r in rows if r != center]
                assert negs[p, k] == (off[0] if off else -1)

    def test_draws_depend_on_the_position_not_the_block(self):
        centers = np.random.default_rng(58).integers(0, 10, 50)
        _, whole = self._block(10, centers, key=58, first=100)
        _, head = self._block(10, centers[:17], key=58, first=100)
        _, tail = self._block(10, centers[17:], key=58, first=117)
        np.testing.assert_array_equal(whole, np.concatenate([head, tail]))


class TestTrainDocument:
    """One document's label passes trained in a call of their own."""

    def test_position_accounting(self):
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig(epochs=1))
        doc = corpus.docs[0]
        loss, trained, shortfall = _train_doc(state, doc)
        assert state.positions_done == trained == len(doc.tokens)
        assert loss > 0 and shortfall == 0

    def test_multilabel_runs_once_per_label(self):
        rng = np.random.default_rng(60)
        emb = random_embedding(rng, 6, 4)
        docs = [Document(("t0", "t1", "t2"), ("x", "y")),
                Document(("t3", "t4"), ("x",))]
        corpus = from_documents(docs)
        model = merge(emb, build_vocab(corpus), seed=1)
        state = init_state(model, FinetuneConfig(epochs=1))
        assert state.total_positions == 3 * 2 + 2
        _train_doc(state, docs[0])
        assert state.positions_done == 6

    def test_empty_context_leaves_input_matrix_untouched(self):
        # a single-token document has no context words, so only the class
        # vector and the center's output row may receive updates
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig())
        before = state.input_matrix.copy()
        loss, _, shortfall = _train_doc(state, Document(("t3",), ("one",)))
        # all-zero output vectors: every logit is 0, each term costs ln 2
        assert shortfall == 0
        np.testing.assert_allclose(loss, 6 * math.log(2), rtol=1e-12)
        np.testing.assert_array_equal(state.input_matrix, before)
        assert state.output_matrix.any()

    def test_class_vector_moves_once_outputs_are_nonzero(self):
        # the very first update sees all-zero output vectors, so dL/dh = 0;
        # from the second pass on the class vector must move
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig())
        doc = Document(("t3",), ("one",))
        before = state.class_vectors.copy()
        _train_doc(state, doc)
        np.testing.assert_array_equal(state.class_vectors, before)
        _train_doc(state, doc)
        assert not np.array_equal(state.class_vectors, before)

    def test_alpha_follows_schedule(self):
        model, corpus = small_setup(n_docs=1, doc_len=2)
        state = init_state(model, FinetuneConfig(epochs=1))
        _train_doc(state, corpus.docs[0])
        # two total positions: the last one trains at alpha0 * (1 - 1/2)
        assert state.total_positions == 2
        assert state.alpha == 0.0125


class TestInitState:
    def test_class_vectors_and_key_come_from_their_streams(self):
        model, corpus = small_setup(dim=8)
        state = init_state(model, FinetuneConfig(seed=9))
        # uniform on [-1/16, 1/16), row by row from counter 0 of the
        # seed's class-vector stream
        key = splitmix64(9, _kernel.STREAM_CLASSES)
        expected = [[(splitmix_uniform(key, 8 * c + j) - 0.5) / 8 for j in range(8)]
                    for c in range(2)]
        assert state.class_vectors.tolist() == expected
        # the noise key is the key of the noise stream, and the state keeps
        # no generator to draw from later
        assert state.key == splitmix64(9, _kernel.STREAM_NOISE)
        assert not hasattr(state, "rng")

    def test_matrices_and_totals(self):
        model, corpus = small_setup(n_vocab=60)  # some pretrained rows unused
        cfg = FinetuneConfig(epochs=4)
        state = init_state(model, cfg)
        vocab = build_vocab(corpus)
        assert state.output_matrix.shape == (len(vocab), 8)
        assert not state.output_matrix.any()  # zero-initialized
        assert state.input_matrix.dtype == np.float64
        # the corpus rows alone, in vocabulary order: each the token's merged row
        assert len(state.input_matrix) == len(model.vocab) < len(model)
        # every corpus token has a pretrained row here
        for token, row in model.vocab.index.items():
            merged = model.pretrained.vector(token)
            assert state.input_matrix[row].tobytes() == merged.astype(np.float64).tobytes()
        expected_total = 4 * sum(len(d.tokens) * len(d.labels) for d in corpus.docs)
        assert state.total_positions == expected_total

    def test_requires_merged_model(self):
        # a model whose embedding lacks a corpus token, as merge() never makes
        rng = np.random.default_rng(61)
        emb = random_embedding(rng, 3, 4)
        corpus = from_documents([Document(("t0", "novel"), ("c",))])
        model = MergedModel(emb, (), np.empty((0, 4), np.float32),
                            np.empty(0, np.int64), build_vocab(corpus))
        with pytest.raises(ValueError, match="merge\\(\\) must precede"):
            init_state(model, FinetuneConfig())

    def test_counts_come_from_the_merged_vocabulary(self, monkeypatch):
        model, corpus = small_setup()

        def count_again(corpus):
            raise AssertionError("the corpus was counted again")

        monkeypatch.setattr(vocab_module, "build_vocab", count_again)
        state = init_state(model, FinetuneConfig())
        assert state.index is model.vocab.index
        assert state.noise_table.tobytes() == build_noise_table(model.vocab).tobytes()


class TestFinetune:
    def test_deterministic_in_seed(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, seed=5)
        t1, c1 = finetune(model, cfg)
        t2, c2 = finetune(model, cfg)
        t3, _ = finetune(model, FinetuneConfig(epochs=2, seed=6))
        assert t1.tobytes() == t2.tobytes()
        assert c1.matrix.tobytes() == c2.matrix.tobytes()
        assert t1.tobytes() != t3.tobytes()

    def test_rows_outside_corpus_stay_frozen(self):
        rng = np.random.default_rng(62)
        emb = random_embedding(rng, 12, 5)
        docs = [Document(("t0", "t1", "t2", "t1"), ("c",)),
                Document(("t2", "t0", "extra"), ("d",))]
        corpus = from_documents(docs)
        model = merge(emb, build_vocab(corpus), seed=1)
        tuned = _tuned_set(model, finetune(model, FinetuneConfig(epochs=3))[0])
        for w in emb.words:
            if w not in {"t0", "t1", "t2"}:
                assert tuned.vector(w).tobytes() == emb.vector(w).tobytes()
        assert tuned.matrix[:3].tobytes() != emb.matrix[:3].tobytes()

    def test_runs_in_bounded_memory(self):
        """A run holds the pretrained set plus the corpus rows: merging
        reads the set a block at a time and keeps the corpus rows alone, and
        merging and training together allocate less than four 64-bit copies
        of the corpus rows (the input and output rows, the float32 result
        and the per-epoch arrays). The export writes a block of rows at a
        time, so it holds no copy of the merged matrix either."""
        emb = random_embedding(np.random.default_rng(64), 20000, 100)
        crng = np.random.default_rng(65)
        docs = [Document(tuple(f"t{j}" for j in crng.integers(0, 40, 20)) + ("novel",),
                         ("one" if i % 2 else "two",)) for i in range(10)]
        corpus = from_documents(docs)
        cfg = FinetuneConfig(epochs=2, seed=3)
        finetune(small_setup()[0], cfg)  # first-call imports and the kernel's load
        vocab = build_vocab(corpus)
        tracemalloc.start()
        try:
            model = merge(emb, vocab, seed=1)
            tuned, _ = finetune(model, cfg)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            save_binary(TunedEmbedding(model, tuned), _Discard())
            write_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        corpus_rows = len(vocab) * emb.dim * 8
        assert tuned.tobytes() != model.corpus_rows.tobytes()
        assert peak < 4 * corpus_rows, (peak, corpus_rows)
        assert write_peak < emb.matrix.nbytes // 8, write_peak

    def test_vanishing_learning_rate_changes_nothing(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=1, alpha0=2e-12, alpha_min=1e-12)
        tuned, _ = finetune(model, cfg)
        assert tuned.tobytes() == model.corpus_rows.tobytes()

    def test_mean_position_loss_decreases_over_epochs(self):
        model, corpus = small_setup()
        epochs = 6
        state = init_state(model, FinetuneConfig(
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
                _train_doc(state, doc)
            losses.append(_position_mean_loss(state, corpus, eval_negs))
        # all-zero outputs score (1 + 5) ln 2 per position before training
        np.testing.assert_allclose(losses[0], 6 * math.log(2), rtol=1e-12)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_returns_float32_corpus_rows(self):
        model, corpus = small_setup(n_vocab=60)  # some pretrained rows unused
        tuned, cv = finetune(model, FinetuneConfig(epochs=1))
        assert tuned.shape == (len(model.vocab), 8) and len(model.vocab) < len(model)
        assert tuned.dtype == np.float32
        assert cv.classes == corpus.classes
        assert cv.matrix.dtype == np.float32
        assert cv.matrix.shape == (2, 8)

    def test_logs_one_line_per_epoch(self, caplog):
        model, corpus = small_setup(n_docs=4)
        with caplog.at_level(logging.INFO, logger="classvec.trainer"):
            finetune(model, FinetuneConfig(epochs=2))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "classvec.trainer"]
        assert any("epoch 1/2" in l for l in lines)
        assert any("epoch 2/2" in l for l in lines)
        for field in ("mean loss", "alpha", "positions/s", "short of negatives"):
            assert all(field in l for l in lines if "epoch" in l)

    @pytest.mark.parametrize("path", ["compiled kernel", "numpy reference"])
    def test_epoch_lines_name_the_path_that_trained(self, path, caplog, request):
        request.getfixturevalue(
            "kernel_library" if path == "compiled kernel" else "no_kernel"
        )
        model, corpus = small_setup(n_docs=4)
        with caplog.at_level(logging.INFO, logger="classvec.trainer"):
            finetune(model, FinetuneConfig(epochs=2))
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "classvec.trainer" and "epoch" in r.getMessage()]
        assert len(lines) == 2
        assert all(l.endswith(f" ({path})") for l in lines)

    def test_divergent_run_raises(self, monkeypatch):
        # on the kernel, then on the fallback: the epoch is 1-based, as in
        # the log line, and no numpy warning comes first
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, alpha0=1e30, alpha_min=1.0)
        for fallback in (False, True):
            if fallback:
                disable_kernel(monkeypatch)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FloatingPointError,
                                   match="^non-finite values after epoch 1$"):
                    finetune(model, cfg)

    def test_rows_beyond_the_float32_range_are_an_error(self, monkeypatch):
        # finite in float64, so every epoch's check passes, but the export
        # would write inf, which no reader takes
        model, corpus = small_setup()

        def overflowing(state, chunk):
            state.input_matrix[0, 0] = 1e39
            return 1.0, 0

        monkeypatch.setattr(_kernel, "train_chunk", overflowing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError,
                               match="^tuned vectors exceed the float32 range after epoch 2$"):
                finetune(model, FinetuneConfig(epochs=2))

    def test_shuffle_is_seeded_and_changes_the_run(self):
        model, corpus = small_setup()
        cfg = FinetuneConfig(epochs=2, shuffle=True, seed=4)
        t1, _ = finetune(model, cfg)
        t2, _ = finetune(model, cfg)
        t3, _ = finetune(model, FinetuneConfig(epochs=2, seed=4))
        assert t1.tobytes() == t2.tobytes()
        assert t1.tobytes() != t3.tobytes()

    def test_only_a_shuffled_run_reads_the_shuffle_stream(self, monkeypatch):
        model, corpus = small_setup()
        runs = {}
        for stream in (_kernel.STREAM_SHUFFLE, 99):
            monkeypatch.setattr(_kernel, "STREAM_SHUFFLE", stream)
            runs[stream] = [finetune(model, FinetuneConfig(epochs=2, seed=4,
                                                           shuffle=shuffle))[0].tobytes()
                            for shuffle in (False, True)]
        plain, shuffled = zip(*runs.values())
        assert plain[0] == plain[1]
        assert shuffled[0] != shuffled[1]


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
            rows, cv = finetune(model, cfg)
            tuned = _tuned_set(model, rows)
            y, z = tuned.vector("y"), tuned.vector("z")
            a, b = cv.vector("A"), cv.vector("B")
            assert cos(y, a) - cos(y, b) > 0.1
            assert cos(z, b) - cos(z, a) > 0.1


@pytest.fixture()
def kernel(kernel_library):
    return _kernel.train_chunk


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


def _train_two_epochs(model, corpus, cfg, train):
    """Two epochs, each document in a call of ``train`` of its own."""
    state = init_state(model, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "train_chunk", train)
        stats = [_train_doc(state, d) for _ in range(2) for d in corpus.docs]
    return state, np.array(stats)


def _varied_setup(skewed: bool):
    """Like ``_kernel_setup``, with documents of 1 to 30 tokens, one in
    three of them with two or three labels."""
    rng = np.random.default_rng(80)
    emb = random_embedding(rng, 24, 7)
    crng = np.random.default_rng(81)
    docs = []
    for i in range(30):
        n = int(crng.integers(1, 31))
        if skewed:
            toks = tuple("t0" if crng.random() < 0.9 else f"t{crng.integers(1, 4)}"
                         for _ in range(n))
        else:
            toks = tuple(f"t{j}" for j in crng.integers(0, 16, n))
        if i == 3:
            toks += ("novel",)
        labels = ("one", "two", "three")[:1 + (i % 3 == 0) + (i % 6 == 0)]
        docs.append(Document(toks, labels[i % 2:] + labels[:i % 2]))
    corpus = from_documents(docs)
    return merge(emb, build_vocab(corpus), seed=2), corpus


def _split_epochs(model, corpus, cfg, train, split=None, first=0):
    """Train ``cfg.epochs`` epochs of ``corpus`` through ``train``, each in
    one call, or with ``split`` in two: cut at the first pass boundary at or
    after position ``split`` that lies between two passes of one document.
    Training starts at run-wide position ``first``. Returns the state, the
    per-epoch stats and per call its pass lengths."""
    state = init_state(model, cfg)
    state.positions_done = first
    state.total_positions += first
    calls = []

    def recording(state, chunk):
        calls.append(chunk.lengths.tolist())
        return train(state, chunk)

    doc_passes = [trainer._doc_passes(state, doc) for doc in corpus.docs]
    passes = [p for ps in doc_passes for p in ps]
    cut = len(passes)
    if split is not None:
        doc_of_pass = [i for i, ps in enumerate(doc_passes) for _ in ps]
        ends = np.cumsum([len(p[0]) for p in passes])
        cut = min(j for j in range(1, len(passes))
                  if ends[j - 1] >= split and doc_of_pass[j - 1] == doc_of_pass[j])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "train_chunk", recording)
        stats = [
            np.sum([trainer._train_passes(state, part)
                    for part in (passes[:cut], passes[cut:]) if part], axis=0)
            for _ in range(cfg.epochs)
        ]
    return state, np.array(stats), calls


def _one_pass(idx, label_id, alphas, first=0):
    """A chunk holding one label pass over every position."""
    return trainer.Chunk(idx, alphas,
                         *np.array([[len(idx)], [label_id]], dtype=np.int64), first)


def _per_pass_epoch(state, corpus):
    """One epoch trained label pass by label pass with ``_reference_pass``,
    each pass with the rates of its own schedule call: the reference for
    training an epoch, or any run of passes, in one call."""
    cfg = state.cfg
    stats = []
    for doc in corpus.docs:
        for label in doc.labels:
            idx = np.array([state.index[t] for t in doc.tokens], dtype=np.int64)
            n = len(idx)
            alphas = lr_schedule(
                cfg, (state.positions_done + np.arange(n)) / state.total_positions
            )
            loss, shortfall = trainer._reference_pass(
                state, idx, state.class_index[label], alphas, state.positions_done,
            )
            state.positions_done += n
            state.alpha = float(alphas[-1])
            stats.append((loss, n, shortfall))
    return np.array(stats).sum(axis=0)


def _assert_close_states(fast, ref):
    for name in ("input_matrix", "output_matrix", "class_vectors"):
        np.testing.assert_allclose(
            getattr(fast, name), getattr(ref, name), rtol=0, atol=1e-10
        )
    assert (fast.positions_done, fast.alpha) == (ref.positions_done, ref.alpha)


class TestKernel:
    # 40 negatives over ~17 noise rows: repeated output rows at every step;
    # windows past 2^63 - n overflow p + window + 1 in int64, and windows
    # past 2^64 wrap in ctypes, unless they are clamped to the positions
    @pytest.mark.parametrize("negative, window", [
        (4, 3), (40, 3), (4, 2**63 - 3), (4, 2**64 + 7),
    ], ids=["4", "40", "4-window9223372036854775805", "4-window18446744073709551623"])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_matches_reference_on_identical_draws(self, kernel, negative, window, skewed):
        model, corpus = _kernel_setup(skewed)
        cfg = FinetuneConfig(epochs=2, window=window, negative=negative, alpha0=0.05,
                             seed=8)
        ref, ref_stats = _train_two_epochs(model, corpus, cfg, trainer._reference_chunk)
        fast, fast_stats = _train_two_epochs(model, corpus, cfg, kernel)
        _assert_close_states(fast, ref)
        # the kernel ran on the corpus rows, fewer than the merged ones
        assert len(fast.input_matrix) == len(model.vocab) < len(model)
        # positions trained and short of negatives agree exactly, losses closely
        np.testing.assert_array_equal(fast_stats[:, 1:], ref_stats[:, 1:])
        np.testing.assert_allclose(fast_stats[:, 0], ref_stats[:, 0], rtol=1e-9)
        assert ref_stats[:, 1].sum() == ref.positions_done
        assert (ref_stats[:, 2].sum() > 0) == skewed

    @pytest.mark.parametrize("skewed", [False, True])
    def test_matches_reference_past_2_to_the_32nd_position(self, kernel, skewed):
        # draw counters pass 2^40 here: a 32-bit counter anywhere in C
        # would give other draws than the reference's
        model, corpus = _varied_setup(skewed)
        cfg = FinetuneConfig(epochs=2, window=3, negative=4, alpha0=0.05, seed=8)
        first = 2**32 + 5
        ref, ref_stats, _ = _split_epochs(model, corpus, cfg, trainer._reference_chunk,
                                          first=first)
        fast, fast_stats, _ = _split_epochs(model, corpus, cfg, kernel, first=first)
        _assert_close_states(fast, ref)
        assert fast.positions_done > 2**32
        np.testing.assert_array_equal(fast_stats[:, 1:], ref_stats[:, 1:])
        np.testing.assert_allclose(fast_stats[:, 0], ref_stats[:, 0], rtol=1e-9)
        assert (ref_stats[:, 2].sum() > 0) == skewed

    # an epoch in one call, or in two cut inside a multilabel document at
    # or after position 24, or 6
    @pytest.mark.parametrize("split", [None, 24, 6])
    @pytest.mark.parametrize("skewed", [False, True])
    def test_chunks_match_the_reference_pass_by_pass(self, kernel, split, skewed):
        model, corpus = _varied_setup(skewed)
        cfg = FinetuneConfig(epochs=2, window=3, negative=4, alpha0=0.05, seed=8)
        ref = init_state(model, cfg)
        ref_stats = np.array([_per_pass_epoch(ref, corpus) for _ in range(cfg.epochs)])
        fast, fast_stats, calls = _split_epochs(model, corpus, cfg, kernel, split)
        _assert_close_states(fast, ref)
        np.testing.assert_array_equal(fast_stats[:, 1:], ref_stats[:, 1:])
        np.testing.assert_allclose(fast_stats[:, 0], ref_stats[:, 0], rtol=1e-9)
        assert (ref_stats[:, 2].sum() > 0) == skewed
        assert sum(map(sum, calls)) == fast_stats[:, 1].sum()
        assert len(calls) == cfg.epochs * (1 if split is None else 2)
        if split is not None:
            # the draws do not depend on the grouping: the bytes are those
            # of one call per epoch
            whole, _, _ = _split_epochs(model, corpus, cfg, kernel)
            for name in ("input_matrix", "output_matrix", "class_vectors"):
                assert getattr(fast, name).tobytes() == getattr(whole, name).tobytes()

    @pytest.mark.parametrize("split", [None, 24, 6])
    def test_fallback_writes_the_bytes_of_single_passes(self, split):
        # the numpy reference trains pass by pass with the draws of each
        # pass's positions, so grouping changes no byte of its result
        model, corpus = _varied_setup(skewed=True)
        cfg = FinetuneConfig(epochs=2, window=3, negative=4, alpha0=0.05, seed=8)
        ref = init_state(model, cfg)
        ref_stats = np.array([_per_pass_epoch(ref, corpus) for _ in range(cfg.epochs)])
        slow, slow_stats, _ = _split_epochs(
            model, corpus, cfg, trainer._reference_chunk, split
        )
        for name in ("input_matrix", "output_matrix", "class_vectors"):
            assert getattr(slow, name).tobytes() == getattr(ref, name).tobytes()
        assert (slow.positions_done, slow.alpha) == (ref.positions_done, ref.alpha)
        np.testing.assert_array_equal(slow_stats[:, 1:], ref_stats[:, 1:])
        np.testing.assert_allclose(slow_stats[:, 0], ref_stats[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_finetune_trains_each_epoch_in_one_call_and_draws_nothing_after_init(
        self, kernel, monkeypatch, fallback
    ):
        model, corpus = _kernel_setup(skewed=False)
        calls, draws = [], []
        train = trainer._reference_chunk if fallback else kernel
        uniforms, permutation = _kernel.uniforms, _kernel.permutation

        def counting(state, chunk):
            calls.append(len(chunk.idx))
            return train(state, chunk)

        inside = []  # set while a permutation draws its uniforms

        def counting_uniforms(key, counters):
            if not inside:
                draws.append(("uniforms", counters.size))
            return uniforms(key, counters)

        def counting_permutation(key, n, draw):
            draws.append(("permutation", draw))
            inside.append(draw)
            try:
                return permutation(key, n, draw)
            finally:
                inside.pop()

        monkeypatch.setattr(_kernel, "train_chunk", counting)
        monkeypatch.setattr(_kernel, "uniforms", counting_uniforms)
        monkeypatch.setattr(_kernel, "permutation", counting_permutation)
        cfg = FinetuneConfig(epochs=3, seed=9, shuffle=True)
        finetune(model, cfg)
        positions = sum(len(d.tokens) * len(d.labels) for d in corpus.docs)
        assert calls == [positions] * cfg.epochs
        # init_state draws the class vectors (2 x 7); then only the document
        # order is drawn, once per epoch, and on the fallback the negatives
        assert draws[0] == ("uniforms", 2 * 7)
        orders = [d for d in draws[1:] if d[0] == "permutation"]
        assert orders == [("permutation", e) for e in range(cfg.epochs)]
        assert fallback or len(draws) == 1 + cfg.epochs

    def test_finetune_runs_the_kernel_byte_deterministically(self, kernel, monkeypatch):
        def no_reference(*args):
            raise AssertionError("finetune fell back to the reference pass")

        monkeypatch.setattr(trainer, "_reference_pass", no_reference)
        model, corpus = _kernel_setup(skewed=False)
        cfg = FinetuneConfig(epochs=2, seed=9)
        t1, c1 = finetune(model, cfg)
        t2, c2 = finetune(model, cfg)
        assert t1.tobytes() == t2.tobytes()
        assert c1.matrix.tobytes() == c2.matrix.tobytes()

    # 40 negatives on the skewed corpus grow the values to about 1e3, where
    # any difference in rounding shows in the low bits
    @pytest.mark.parametrize("skewed, negative", [(False, 5), (True, 40)])
    def test_reference_writes_the_bits_of_the_kernel(self, kernel, skewed, negative):
        # the reference sums the logits in the kernel's order and takes its
        # sigmoid through libm's exp, so it trains the same 64-bit state,
        # and a run without the kernel tunes the same bytes
        model, corpus = _kernel_setup(skewed)
        cfg = FinetuneConfig(epochs=2, negative=negative, alpha0=0.05, seed=8)
        ref, _ = _train_two_epochs(model, corpus, cfg, trainer._reference_chunk)
        fast, _ = _train_two_epochs(model, corpus, cfg, kernel)
        for name in ("input_matrix", "output_matrix", "class_vectors"):
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name
        tuned, classes = finetune(model, cfg)
        with pytest.MonkeyPatch.context() as mp:
            disable_kernel(mp)
            slow, slow_classes = finetune(model, cfg)
        assert tuned.tobytes() == slow.tobytes()
        assert classes.matrix.tobytes() == slow_classes.matrix.tobytes()

    def test_finetune_matches_train_document_in_shuffled_order(self, kernel):
        # finetune trains each epoch in one call; training each document in
        # a call of its own must give the same bytes
        model, corpus = _kernel_setup(skewed=False)
        cfg = FinetuneConfig(epochs=2, seed=12, shuffle=True)
        tuned, classes = finetune(model, cfg)
        ref = init_state(model, cfg)
        key = splitmix64(cfg.seed, _kernel.STREAM_SHUFFLE)
        n = len(corpus.docs)
        for epoch in range(cfg.epochs):
            u = [splitmix_uniform(key, epoch * n + i) for i in range(n)]
            for di in sorted(range(n), key=u.__getitem__):
                _train_doc(ref, corpus.docs[di])
        assert tuned.tobytes() == ref.input_matrix.astype(np.float32).tobytes()
        assert classes.matrix.tobytes() == ref.class_vectors.astype(np.float32).tobytes()

    def test_rejects_out_of_range_indices(self, kernel):
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig(negative=2))
        before = state.output_matrix.copy()
        idx = np.array([0, len(state.output_matrix)], dtype=np.int64)
        with pytest.raises(IndexError):
            kernel(state, _one_pass(idx, 0, np.full(2, 0.025)))
        np.testing.assert_array_equal(state.output_matrix, before)

    # in_idx puts the bad row at the last pass's last position, which a step
    # reads as a context input before it is a target; out_idx puts it at the
    # pass's first position, which is a target first
    @pytest.mark.parametrize("field, value", [
        ("in_idx", -1), ("in_idx", 10**6), ("out_idx", -1), ("out_idx", 10**6),
        ("labels", 2), ("labels", -1), ("lengths", 99),
        # lengths that add up to fewer or more than the chunk's positions
        ("lengths", 2), ("lengths", 4), ("first", -1),
    ])
    def test_bad_index_in_the_last_pass_writes_nothing(self, kernel, field, value):
        # three passes of three positions; the fault sits in the last one,
        # after two passes the kernel could already have trained
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig(negative=2, seed=4))
        _train_doc(state, corpus.docs[0])  # nonzero outputs: every step writes
        idx = np.arange(9, dtype=np.int64)
        chunk = trainer.Chunk(
            idx, np.full(9, 0.025),
            np.array([3, 3, 3]), np.array([0, 1, 0]), 2**33,
        )
        if field == "first":
            chunk.first = value
        elif field in ("in_idx", "out_idx"):
            chunk.idx[-1 if field == "in_idx" else -3] = value
        else:
            getattr(chunk, field)[-1] = value
        before = [a.copy() for a in (state.input_matrix, state.output_matrix,
                                     state.class_vectors)]
        with pytest.raises(IndexError, match="out of range"):
            kernel(state, chunk)
        after = (state.input_matrix, state.output_matrix, state.class_vectors)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 13, 16, 17])
    def test_noise_search_matches_searchsorted(self, kernel, rows):
        # one position with k slots, whose noise table holds first-attempt
        # draws of that very position, some of them twice: those draws fall
        # exactly on an entry (a tie, which side="right" puts past it), and
        # the largest draw lies above the last entry and clamps to it
        key, first, k = 0x5EED + rows, 2**40 + rows, 4 * rows + 4
        draws = np.array([[splitmix_uniform(key, (first * k + s) * NS_RESAMPLE_ATTEMPTS + a)
                           for a in range(NS_RESAMPLE_ATTEMPTS)] for s in range(k)])
        firsts = np.sort(draws[:, 0])
        rng = np.random.default_rng(rows)
        table = np.sort(np.append(rng.choice(firsts[:-1], rows - 1), firsts[0])
                        if rows > 1 else firsts[:1])
        if rows > 2:
            table[1] = table[0]  # a repeated entry, a row of zero mass

        def row_of(u):
            return min(int(np.searchsorted(table, u, side="right")), rows - 1)

        center = row_of(draws[0, 0])  # slot 0 resamples at least once
        counts = np.zeros(rows)
        for s in range(k):
            drawn = [row_of(u) for u in draws[s] if row_of(u) != center]
            if drawn:
                counts[drawn[0]] += 1
        assert np.isin(table, firsts).all() and firsts[-1] > table[-1]
        counts[center] = -1.0
        dim = 3
        state = SimpleNamespace(
            cfg=FinetuneConfig(negative=k, window=1), key=key,
            input_matrix=np.ones((rows, dim)),
            output_matrix=np.zeros((rows, dim)), noise_table=table,
            class_vectors=np.array([[1.0, 2.0, 4.0]]),
        )
        alpha = 0.5
        kernel(state, _one_pass(np.array([center]), 0, np.full(1, alpha), first))
        # all-zero outputs: every logit is 0, so each draw of row r moves it
        # by -alpha * sigmoid(0) * h, and the center by +alpha * (1 - sigmoid(0)) * h
        h = state.class_vectors[0]
        np.testing.assert_array_equal(
            state.output_matrix, -alpha * 0.5 * counts[:, None] * h[None, :]
        )

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
        state = init_state(model, FinetuneConfig(negative=2))
        setattr(state, name, spoil(getattr(state, name)))
        before = [a.copy() for a in (state.input_matrix, state.output_matrix,
                                     state.class_vectors)]
        idx = np.arange(2, dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel(state, _one_pass(idx, 0, np.full(2, 0.025)))
        after = (state.input_matrix, state.output_matrix, state.class_vectors)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()
        # the same call on intact arrays trains
        state = init_state(model, FinetuneConfig(negative=2))
        kernel(state, _one_pass(idx, 0, np.full(2, 0.025)))
        assert state.output_matrix.tobytes() != before[1].tobytes()

    def test_rejects_overlapping_matrices(self, kernel):
        # the C side takes the matrices as restrict pointers
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig(negative=2))
        state.class_vectors = state.input_matrix[:2]
        before = state.input_matrix.copy()
        idx = np.arange(2, dtype=np.int64)
        with pytest.raises(ValueError, match="must not overlap"):
            kernel(state, _one_pass(idx, 0, np.full(2, 0.025)))
        assert state.input_matrix.tobytes() == before.tobytes()

    def test_rejects_a_chunk_whose_arrays_disagree_in_shape(self, kernel):
        model, corpus = small_setup()
        state = init_state(model, FinetuneConfig(negative=2, seed=4))
        _train_doc(state, corpus.docs[0])  # nonzero outputs: every step writes
        before = [a.copy() for a in (state.input_matrix, state.output_matrix,
                                     state.class_vectors)]
        idx = np.arange(3, dtype=np.int64)
        with pytest.raises(ValueError, match="training chunk arrays disagree in shape"):
            kernel(state, _one_pass(idx, 0, np.full(2, 0.025)))
        after = (state.input_matrix, state.output_matrix, state.class_vectors)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()

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
            tuned, _ = finetune(model, cfg)
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "no C compiler" in warnings[0]
        assert any("epoch 2/2" in r.getMessage() for r in caplog.records)
        ref = init_state(model, cfg)
        for _ in range(2):
            for doc in corpus.docs:
                _train_doc(ref, doc)
        assert tuned.tobytes() == ref.input_matrix.astype(np.float32).tobytes()

    def test_failed_build_raises_and_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: "false")
        with pytest.raises(OSError, match="false exited 1"):
            _kernel.compile_library(tmp_path / "kernel.so")
        assert list(tmp_path.iterdir()) == []

    def test_build_over_time_raises_and_leaves_no_file(self, tmp_path, monkeypatch):
        def too_slow(args, **kwargs):
            raise subprocess.TimeoutExpired(args, kwargs["timeout"])

        monkeypatch.setattr(subprocess, "run", too_slow)
        with pytest.raises(OSError, match=f"ran over {_kernel.COMPILE_TIMEOUT_S} s"):
            _kernel.compile_library(tmp_path / "kernel.so")
        assert list(tmp_path.iterdir()) == []

    def test_host_cpu_without_cpuinfo_names_the_platform(self, monkeypatch):
        def unreadable(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(_kernel, "open", unreadable, raising=False)
        assert _kernel.host_cpu() == f"{platform.machine()} {platform.processor()}"

    def test_build_gets_the_mode_of_a_new_compiler_output(self, tmp_path, monkeypatch):
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        if shutil.which(cc[0]) is None:
            pytest.skip("no C compiler")
        source = tmp_path / "tiny.c"
        source.write_text("int one(void) { return 1; }\n")
        monkeypatch.setattr(_kernel, "SOURCE", source)
        built, direct = tmp_path / "cache" / "kernel.so", tmp_path / "direct.so"
        old = os.umask(0o022)
        try:
            _kernel.compile_library(built)
            subprocess.run([*cc, *_kernel.FLAGS, "-o", str(direct), str(source), *_kernel.LIBS],
                           check=True, capture_output=True, timeout=_kernel.COMPILE_TIMEOUT_S)
        finally:
            os.umask(old)
        mode = stat.S_IMODE(built.stat().st_mode)
        assert mode == stat.S_IMODE(direct.stat().st_mode)
        assert mode & 0o055 == 0o055  # other users can load it
        assert [p.name for p in built.parent.iterdir()] == ["kernel.so"]

    def test_build_removes_older_builds_for_this_cpu_only(self, tmp_path, monkeypatch,
                                                          kernel_library):
        source = tmp_path / "_kernel.c"
        source.write_bytes(_kernel.SOURCE.read_bytes())
        monkeypatch.setattr(_kernel, "SOURCE", source)
        built = _kernel.library_path()
        cpu = built.name.split("-")[1]
        built.parent.mkdir()
        older = built.parent / f"_kernel-{cpu}-{'0' * 16}.so"
        other_cpu = built.parent / f"_kernel-{'f' * 16}-{'0' * 16}.so"
        for path in (older, other_cpu):
            path.write_bytes(b"")
        _kernel.open_library()
        assert sorted(built.parent.iterdir()) == sorted([built, other_cpu])

    def test_library_path_is_keyed_by_the_host_cpu(self, monkeypatch):
        # -march=native builds for this CPU: another CPU gets another file
        first = _kernel.library_path()
        assert _kernel.library_path() == first
        assert _kernel.host_cpu()
        monkeypatch.setattr(_kernel, "host_cpu", lambda: "another cpu")
        other = _kernel.library_path()
        assert other != first and other.parent == first.parent

    def test_compiles_clean_and_imports_only_math_and_memory(self, tmp_path):
        # README promises no strtod or printf: nothing locale-dependent, and
        # no vector math library under -march=native
        cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
        if shutil.which(cc[0]) is None or shutil.which("nm") is None:
            pytest.skip("needs a C compiler and nm")
        target = tmp_path / "kernel.so"
        build = subprocess.run(
            [*cc, *_kernel.FLAGS, "-std=c99", "-Wall", "-Wextra", "-pedantic",
             "-Werror", "-o", str(target), str(_kernel.SOURCE), *_kernel.LIBS],
            capture_output=True, text=True, timeout=_kernel.COMPILE_TIMEOUT_S,
        )
        assert build.returncode == 0, build.stderr
        listing = subprocess.run(
            ["nm", "-D", "--undefined-only", str(target)],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        imported = {line.split()[-1].split("@")[0] for line in listing.splitlines()
                    if line.strip()}
        allowed = {"exp", "log", "log1p", "fmax", "frexp", "memcpy", "memset",
                   # weak symbols every shared object refers to for the loader
                   "__cxa_finalize", "__gmon_start__",
                   "_ITM_deregisterTMCloneTable", "_ITM_registerTMCloneTable"}
        assert imported and imported <= allowed, sorted(imported - allowed)
