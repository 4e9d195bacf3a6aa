"""Training vocabulary extraction and pretrained/corpus vocabulary merging.

The merged matrix seeds fine-tuning: pretrained rows are copied verbatim,
and corpus words missing from the pretrained set get small seeded random
vectors. Training touches only the rows of corpus words, which
``MergedModel.rows`` alone maps from vocabulary rows. The vocabulary keeps
the corpus it counted, so a merged model carries the documents it is
tuned on.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .corpus import LabeledCorpus
from .embedding_io import EmbeddingSet


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

    ``vocab`` is the corpus vocabulary the model was merged over, which
    training reuses: it trains on ``vocab.corpus`` and tunes the rows of
    ``vocab``'s tokens, found through :attr:`rows`; every other row of
    ``embedding`` stays frozen.
    ``unseen`` lists the corpus tokens that had no pretrained vector.
    """

    embedding: EmbeddingSet
    unseen: tuple[str, ...]
    vocab: Vocabulary

    @cached_property
    def rows(self) -> np.ndarray:
        """The ``embedding`` row of each vocabulary row, read-only int64."""
        index = self.embedding.index
        try:
            rows = np.fromiter(map(index.__getitem__, self.vocab.index), np.int64)
        except KeyError as e:
            raise ValueError(
                f"corpus token {e.args[0]!r} is missing from the model; "
                "merge() must precede finetune()"
            ) from None
        rows.flags.writeable = False
        return rows


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
    """Seeded uniform rows on [-0.5/dim, +0.5/dim), one per unseen token."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    rows = (rng.random((len(unseen), dim)) - 0.5) / dim
    return rows.astype(np.float32)


def merge(pretrained: EmbeddingSet, vocab: Vocabulary, seed: int) -> MergedModel:
    """Extend ``pretrained`` with seeded rows for the unseen corpus tokens,
    appended in vocabulary order after the pretrained rows.

    Pretrained rows are copied bit-for-bit; the result is deterministic in
    (pretrained, vocab, seed).
    """
    unseen = unseen_words(vocab, pretrained)
    new_rows = init_unseen(unseen, pretrained.dim, seed)
    words = pretrained.words + unseen
    matrix = np.vstack([pretrained.matrix, new_rows])
    return MergedModel(EmbeddingSet(words, matrix), tuple(unseen), vocab)
