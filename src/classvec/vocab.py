"""Training vocabulary extraction and pretrained/corpus vocabulary merging.

A merged model seeds fine-tuning without copying the pretrained matrix:
it holds the pretrained set and a small block of seeded random rows for
the corpus words missing from it, and its row space is the pretrained
rows followed by that block. Training touches only the rows of corpus
words, which ``MergedModel.rows`` alone maps from vocabulary rows, and
:class:`TunedEmbedding` writes the tuned rows back over them a block of
rows at a time. The vocabulary keeps the corpus it counted, so a merged
model carries the documents it is tuned on.
"""
from __future__ import annotations

from collections import ChainMap, Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterator

import numpy as np

from . import _kernel
from .corpus import LabeledCorpus
from .embedding_io import BLOCK_ROWS, EmbeddingSet


@dataclass(frozen=True)
class Vocabulary:
    """Corpus tokens: ``index`` maps each to its row, in order of first
    appearance, and ``counts`` (read-only int64) holds each row's count.
    ``corpus`` is the corpus counted."""

    index: dict[str, int]
    counts: np.ndarray
    corpus: LabeledCorpus = field(repr=False)

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def total_tokens(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MergedModel:
    """Pretrained vectors extended over the corpus vocabulary.

    The merged rows are those of ``pretrained`` followed by
    ``unseen_matrix`` (read-only float32), the seeded rows of the corpus
    tokens ``unseen`` that had no pretrained vector, in vocabulary order;
    neither block is copied. ``vocab`` is the corpus vocabulary the model
    was merged over, which training reuses: it trains on ``vocab.corpus``
    and tunes the rows of ``vocab``'s tokens, found through :attr:`rows`;
    every other row stays frozen.
    """

    pretrained: EmbeddingSet
    unseen: tuple[str, ...]
    unseen_matrix: np.ndarray
    vocab: Vocabulary

    def __len__(self) -> int:
        return len(self.pretrained) + len(self.unseen)

    @property
    def dim(self) -> int:
        return self.pretrained.dim

    @property
    def words(self) -> list[str]:
        """The merged tokens, in row order."""
        return self.pretrained.words + list(self.unseen)

    @cached_property
    def rows(self) -> np.ndarray:
        """The merged row of each vocabulary row, read-only int64."""
        first = len(self.pretrained)
        index = ChainMap(self.pretrained.index,
                         dict(zip(self.unseen, range(first, first + len(self.unseen)))))
        try:
            rows = np.fromiter(map(index.__getitem__, self.vocab.index), np.int64)
        except KeyError as e:
            raise ValueError(
                f"corpus token {e.args[0]!r} is missing from the model; "
                "merge() must precede finetune()"
            ) from None
        rows.flags.writeable = False
        return rows

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The float32 merged rows ``rows`` (int64), taken from the
        pretrained matrix or the unseen block."""
        first = len(self.pretrained)
        out = np.empty((len(rows), self.dim), dtype=np.float32)
        pretrained = rows < first
        out[pretrained] = self.pretrained.matrix[rows[pretrained]]
        out[~pretrained] = self.unseen_matrix[rows[~pretrained] - first]
        return out


@dataclass(frozen=True)
class TunedEmbedding:
    """A merged model with the row of each corpus token replaced by its
    row of ``rows`` (``|V_T| x m`` finite float32, in vocabulary order), as
    ``save_text`` and ``save_binary`` take it.

    :meth:`blocks` builds ``BLOCK_ROWS`` rows at a time from the pretrained
    matrix, the unseen block and ``rows``, so a write makes no copy of the
    merged matrix; :meth:`embedding_set` makes one, for a caller that wants
    the tuned vectors as an :class:`EmbeddingSet`.
    """

    model: MergedModel
    rows: np.ndarray

    def __post_init__(self):
        if self.rows.shape != (len(self.model.vocab), self.model.dim):
            raise ValueError(
                f"need one row of {self.model.dim} values per vocabulary token, "
                f"{len(self.model.vocab)} in all; got shape {self.rows.shape}"
            )
        if self.rows.dtype != np.float32:
            raise ValueError(f"rows must be float32, got {self.rows.dtype}")
        if not np.isfinite(self.rows).all():
            raise ValueError("rows contain non-finite values")

    def __len__(self) -> int:
        return len(self.model)

    @property
    def dim(self) -> int:
        return self.model.dim

    def blocks(self) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and float32 rows of each block of merged rows, in order."""
        model = self.model
        order = np.argsort(model.rows)  # vocabulary rows by merged row
        at = model.rows[order]
        words, first = model.pretrained.words, len(model.pretrained)
        for start in range(0, len(model), BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, len(model))
            block = model.gather(np.arange(start, stop))
            lo, hi = np.searchsorted(at, (start, stop))
            block[at[lo:hi] - start] = self.rows[order[lo:hi]]
            unseen = model.unseen[max(start - first, 0):max(stop - first, 0)]
            yield words[start:stop] + list(unseen), block

    def embedding_set(self) -> EmbeddingSet:
        """The tuned vectors as one validated set over the merged tokens."""
        return EmbeddingSet(self.model.words,
                            np.concatenate([block for _, block in self.blocks()]))


def build_vocab(corpus: LabeledCorpus) -> Vocabulary:
    """Count every distinct corpus token, each document once whatever its
    label count; rows follow first appearance. The vocabulary keeps
    ``corpus``."""
    counts = Counter(chain.from_iterable(d.tokens for d in corpus.docs))
    array = np.fromiter(counts.values(), np.int64, len(counts))
    array.flags.writeable = False
    return Vocabulary({t: i for i, t in enumerate(counts)}, array, corpus)


def unseen_words(vocab: Vocabulary, pretrained: EmbeddingSet) -> list[str]:
    """Corpus tokens absent from the pretrained set, in vocabulary order."""
    return [t for t in vocab.index if t not in pretrained]


def init_unseen(unseen: list[str], dim: int, seed: int) -> np.ndarray:
    """Seeded uniform rows on [-0.5/dim, +0.5/dim), one per unseen token,
    from the seed's unseen-row stream, row by row."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    key = _kernel.stream_key(seed, _kernel.STREAM_UNSEEN)
    counters = np.arange(len(unseen) * dim, dtype=np.uint64).reshape(len(unseen), dim)
    return ((_kernel.uniforms(key, counters) - 0.5) / dim).astype(np.float32)


def merge(pretrained: EmbeddingSet, vocab: Vocabulary, seed: int) -> MergedModel:
    """Extend ``pretrained`` with seeded rows for the unseen corpus tokens,
    which follow the pretrained rows in vocabulary order.

    The model shares ``pretrained``'s matrix; the result is deterministic
    in (pretrained, vocab, seed).
    """
    unseen = unseen_words(vocab, pretrained)
    rows = init_unseen(unseen, pretrained.dim, seed)
    rows.flags.writeable = False
    return MergedModel(pretrained, tuple(unseen), rows, vocab)
