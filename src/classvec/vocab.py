"""Training vocabulary extraction and pretrained/corpus vocabulary merging.

The merged matrix seeds fine-tuning: pretrained rows are copied verbatim,
and corpus words missing from the pretrained set get small seeded random
vectors. Training touches only the rows of corpus words.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import LabeledCorpus
from .embedding_io import EmbeddingSet


@dataclass(frozen=True)
class Vocabulary:
    """Corpus vocabulary: token -> (row index, frequency), plus totals."""

    entries: dict[str, tuple[int, int]]
    total_tokens: int

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, token: str) -> bool:
        return token in self.entries

    @property
    def tokens(self) -> list[str]:
        return list(self.entries)

    @cached_property
    def frequencies(self) -> np.ndarray:
        """Read-only float64 token counts, indexed by row."""
        freqs = np.zeros(len(self.entries), dtype=np.float64)
        for idx, freq in self.entries.values():
            freqs[idx] = freq
        freqs.flags.writeable = False
        return freqs


@dataclass(frozen=True)
class MergedModel:
    """Pretrained vectors extended over the corpus vocabulary.

    ``vocab`` is the corpus vocabulary the model was merged over, which
    training reuses: it tunes the rows of ``vocab``'s tokens, and every
    other row of ``embedding`` stays frozen. ``unseen`` lists the corpus
    tokens that had no pretrained vector.
    """

    embedding: EmbeddingSet
    unseen: tuple[str, ...]
    vocab: Vocabulary


def build_vocab(corpus: LabeledCorpus) -> Vocabulary:
    """Count every distinct corpus token; indices follow first appearance."""
    entries: dict[str, tuple[int, int]] = {}
    total = 0
    for doc in corpus.docs:
        for tok in doc.tokens:
            total += 1
            if tok in entries:
                idx, freq = entries[tok]
                entries[tok] = (idx, freq + 1)
            else:
                entries[tok] = (len(entries), 1)
    return Vocabulary(entries, total)


def unseen_words(vocab: Vocabulary, pretrained: EmbeddingSet) -> list[str]:
    """Corpus tokens absent from the pretrained set, in vocabulary order."""
    return [t for t in vocab.entries if t not in pretrained]


def init_unseen(unseen: list[str], dim: int, seed: int) -> np.ndarray:
    """Seeded uniform rows on [-0.5/dim, +0.5/dim), one per unseen token."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    rows = (rng.random((len(unseen), dim)) - 0.5) / dim
    return rows.astype(np.float32)


def merge(pretrained: EmbeddingSet, vocab: Vocabulary, seed: int) -> MergedModel:
    """Extend ``pretrained`` with seeded rows for the unseen corpus tokens.

    Pretrained rows are copied bit-for-bit; the result is deterministic in
    (pretrained, vocab, seed).
    """
    unseen = unseen_words(vocab, pretrained)
    new_rows = init_unseen(unseen, pretrained.dim, seed)
    words = pretrained.words + unseen
    matrix = np.vstack([pretrained.matrix, new_rows]) if unseen else pretrained.matrix.copy()
    return MergedModel(EmbeddingSet(words, matrix), tuple(unseen), vocab)
