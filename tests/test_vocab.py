"""Unit tests for vocabulary extraction and pretrained/corpus merging."""
from __future__ import annotations

import numpy as np
import pytest

from classvec.corpus import Document, from_documents
from classvec.embedding_io import EmbeddingSet
from classvec.vocab import build_vocab, init_unseen, merge, unseen_words

from _constructions import random_embedding


def _corpus(*token_lists: tuple[str, ...]):
    return from_documents([Document(toks, ("c",)) for toks in token_lists])


class TestBuildVocab:
    def test_counts_and_first_appearance_indices(self):
        corpus = _corpus(("b", "a", "b"), ("c", "a", "b"))
        vocab = build_vocab(corpus)
        assert vocab.entries == {"b": (0, 3), "a": (1, 2), "c": (2, 1)}
        assert vocab.total_tokens == 6
        assert len(vocab) == 3
        assert "a" in vocab and "z" not in vocab
        assert vocab.tokens == ["b", "a", "c"]
        np.testing.assert_array_equal(vocab.frequencies, [3.0, 2.0, 1.0])
        assert vocab.frequencies is vocab.frequencies
        with pytest.raises(ValueError):
            vocab.frequencies[0] = 9.0

    def test_multilabel_documents_count_tokens_once(self):
        corpus = from_documents([Document(("a", "a"), ("x", "y"))])
        assert build_vocab(corpus).total_tokens == 2


class TestUnseenWords:
    def test_order_follows_vocabulary(self):
        emb = EmbeddingSet(["a", "c"], np.ones((2, 2), np.float32))
        vocab = build_vocab(_corpus(("d", "a", "b"), ("c",)))
        assert unseen_words(vocab, emb) == ["d", "b"]


class TestInitUnseen:
    def test_range_shape_and_dtype(self):
        rows = init_unseen(["x", "y", "z"], 8, seed=3)
        assert rows.shape == (3, 8)
        assert rows.dtype == np.float32
        assert np.all(rows >= -0.5 / 8) and np.all(rows < 0.5 / 8)

    def test_matches_seeded_generator(self):
        rows = init_unseen(["x", "y"], 4, seed=7)
        rng = np.random.default_rng(7)
        expected = ((rng.random((2, 4)) - 0.5) / 4).astype(np.float32)
        np.testing.assert_array_equal(rows, expected)

    def test_empty_and_invalid(self):
        assert init_unseen([], 4, seed=0).shape == (0, 4)
        with pytest.raises(ValueError):
            init_unseen(["x"], 0, seed=0)


class TestMerge:
    def test_pretrained_rows_survive_bit_for_bit(self):
        rng = np.random.default_rng(17)
        pretrained = random_embedding(rng, 10, 6)
        corpus = _corpus(("t1", "t3", "new_a"), ("t3", "new_b"))
        model = merge(pretrained, build_vocab(corpus), seed=2)
        merged = model.embedding
        assert merged.words[:10] == pretrained.words
        assert merged.matrix[:10].tobytes() == pretrained.matrix.tobytes()
        assert model.unseen == ("new_a", "new_b")
        assert merged.words[10:] == ["new_a", "new_b"]

    def test_unseen_rows_use_seeded_initializer(self):
        rng = np.random.default_rng(19)
        pretrained = random_embedding(rng, 3, 4)
        corpus = _corpus(("u1", "u2"),)
        model = merge(pretrained, build_vocab(corpus), seed=42)
        np.testing.assert_array_equal(
            model.embedding.matrix[3:], init_unseen(["u1", "u2"], 4, seed=42)
        )

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(20)
        pretrained = random_embedding(rng, 4, 3)
        corpus = _corpus(("x", "t0"),)
        a = merge(pretrained, build_vocab(corpus), seed=5)
        b = merge(pretrained, build_vocab(corpus), seed=5)
        c = merge(pretrained, build_vocab(corpus), seed=6)
        assert a.embedding.matrix.tobytes() == b.embedding.matrix.tobytes()
        assert a.embedding.matrix.tobytes() != c.embedding.matrix.tobytes()

    def test_no_unseen_words(self):
        rng = np.random.default_rng(21)
        pretrained = random_embedding(rng, 4, 3)
        corpus = _corpus(("t0", "t1"),)
        model = merge(pretrained, build_vocab(corpus), seed=1)
        assert model.unseen == ()
        assert model.embedding.words == pretrained.words
        assert model.embedding.matrix.tobytes() == pretrained.matrix.tobytes()
