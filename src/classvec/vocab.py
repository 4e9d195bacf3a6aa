"""Training vocabulary extraction and pretrained/corpus vocabulary merging.

A merged model seeds fine-tuning from the rows of the corpus words alone.
:func:`merge` reads the pretrained vectors once, a block of rows at a
time, from any block source: an ``EmbeddingSet`` or an
``embedding_io.BlockFile`` streaming a file. It keeps the pretrained row
of each corpus word and gives the corpus words missing from it seeded
random rows; its row space is the pretrained rows followed by those.
Training touches only the rows of corpus words, and
:class:`TunedEmbedding` reads the source a second time, a block at a
time, writing the tuned rows over the corpus words' rows in place and
passing every other row through bit for bit. A ``BlockFile`` checks that
this second read finds the tokens and rows of the first, so no row of a
file changed in between reaches the tuned vectors. The vocabulary keeps
the corpus it counted, so a merged model carries the documents it is
tuned on.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator

import numpy as np

from . import _kernel
from .corpus import LabeledCorpus
from .embedding_io import BLOCK_ROWS, BlockFile, EmbeddingSet, writable


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


@dataclass(frozen=True)
class MergedModel:
    """Pretrained vectors extended over the corpus vocabulary.

    The merged rows are those of ``pretrained``, a block source, followed
    by the seeded rows of the corpus tokens ``unseen`` that had no
    pretrained vector, in vocabulary order. The model keeps the corpus
    tokens' rows alone: ``corpus_rows`` (``|V_T| x m`` read-only float32,
    in vocabulary order) holds each token's pretrained or seeded row, and
    ``rows`` (read-only int64) its merged row. ``vocab`` is the corpus
    vocabulary the model was merged over, which training reuses: it trains
    on ``vocab.corpus`` and tunes the rows of ``vocab``'s tokens; every
    other row stays frozen.
    """

    pretrained: EmbeddingSet | BlockFile
    unseen: tuple[str, ...]
    corpus_rows: np.ndarray
    rows: np.ndarray
    vocab: Vocabulary

    def __len__(self) -> int:
        return len(self.pretrained) + len(self.unseen)

    @property
    def dim(self) -> int:
        return self.pretrained.dim


@dataclass(frozen=True)
class TunedEmbedding:
    """A merged model with the row of each corpus token replaced by its
    row of ``rows`` (``|V_T| x m`` finite float32, in vocabulary order), as
    ``save_text`` and ``save_binary`` take it.

    :meth:`blocks` reads the pretrained source a second time and writes
    the tuned rows over each block's corpus rows in place, so a write
    holds a block of rows, not the merged matrix; every other row passes
    through as the source yields it. :meth:`embedding_set`
    collects them, for a caller that wants the tuned vectors as an
    :class:`EmbeddingSet`.
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
        """The tokens and float32 rows of each block of merged rows, in order:
        the pretrained source's blocks, then the unseen rows.

        A ``BlockFile`` source raises ``EmbeddingChangedError`` before it
        yields a block whose tokens or rows differ from those :func:`merge`
        read, corpus and frozen rows alike."""
        model = self.model
        order = np.argsort(model.rows)  # vocabulary rows by merged row
        at = model.rows[order]
        start = 0
        for tokens, block in model.pretrained.blocks():
            if not block.flags.writeable:  # an EmbeddingSet's own rows
                block = block.copy()
            stop = start + len(tokens)
            lo, hi = np.searchsorted(at, (start, stop))
            block[at[lo:hi] - start] = self.rows[order[lo:hi]]
            yield tokens, block
            start = stop
        unseen = order[np.searchsorted(at, start):]
        for i in range(0, len(unseen), BLOCK_ROWS):
            yield (list(model.unseen[i:i + BLOCK_ROWS]),
                   self.rows[unseen[i:i + BLOCK_ROWS]])

    def embedding_set(self) -> EmbeddingSet:
        """The tuned vectors as one validated set over the merged tokens."""
        words: list[str] = []
        matrix = np.empty((len(self), self.dim), dtype=np.float32)
        for tokens, block in self.blocks():
            matrix[len(words):len(words) + len(tokens)] = block
            words += tokens
        return EmbeddingSet(words, matrix)


def build_vocab(corpus: LabeledCorpus) -> Vocabulary:
    """Count every distinct corpus token, each document once whatever its
    label count; rows follow first appearance. The vocabulary keeps
    ``corpus``."""
    counts = Counter(chain.from_iterable(d.tokens for d in corpus.docs))
    array = np.fromiter(counts.values(), np.int64, len(counts))
    array.flags.writeable = False
    return Vocabulary({t: i for i, t in enumerate(counts)}, array, corpus)


def init_unseen(unseen: list[str], dim: int, seed: int) -> np.ndarray:
    """Seeded uniform rows on [-0.5/dim, +0.5/dim), one per unseen token,
    from the seed's unseen-row stream, row by row."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    key = _kernel.stream_key(seed, _kernel.STREAM_UNSEEN)
    counters = np.arange(len(unseen) * dim, dtype=np.uint64).reshape(len(unseen), dim)
    return ((_kernel.uniforms(key, counters) - 0.5) / dim).astype(np.float32)


def merge(pretrained: EmbeddingSet | BlockFile, vocab: Vocabulary, seed: int
          ) -> MergedModel:
    """Read ``pretrained`` once, a block at a time, keeping the rows of the
    corpus tokens, and give the corpus tokens it lacks seeded rows, which
    follow the pretrained rows in vocabulary order.

    ``pretrained`` is any block source (``len``, ``dim`` and
    ``blocks()``): an ``EmbeddingSet``, or a ``BlockFile`` that streams
    a file with every check of a load. The model holds no pretrained row
    beyond those of the corpus tokens; the result is deterministic in
    (pretrained, vocab, seed). A corpus token the source lacks that is
    empty or holds whitespace is a ``ValueError``: the word2vec formats
    cannot hold it.
    """
    dim = pretrained.dim
    corpus_rows = np.empty((len(vocab), dim), dtype=np.float32)
    rows = np.full(len(vocab), -1, dtype=np.int64)
    start = 0
    for tokens, block in pretrained.blocks():
        at = np.fromiter(map(vocab.index.get, tokens, repeat(-1)), np.int64, len(tokens))
        mine = np.flatnonzero(at >= 0)
        rows[at[mine]] = start + mine
        corpus_rows[at[mine]] = block[mine]
        start += len(tokens)
    missing = np.flatnonzero(rows < 0)
    corpus_tokens = list(vocab.index)
    unseen = tuple(corpus_tokens[i] for i in missing.tolist())
    # a source's tokens passed a reader's checks; an unseen one must pass
    # the set's too, or the tuned vectors could not be written and read back
    for i in range(0, len(unseen), BLOCK_ROWS):
        if not writable(list(unseen[i:i + BLOCK_ROWS])):
            token = next(t for t in unseen[i:] if not writable([t]))
            problem = ("is empty or holds whitespace" if token.split() != [token]
                       else "does not encode as UTF-8")
            raise ValueError(f"corpus token {token!r} {problem}, "
                             "which no embedding file can hold")
    rows[missing] = np.arange(start, start + len(missing))
    corpus_rows[missing] = init_unseen(list(unseen), dim, seed)
    for array in (corpus_rows, rows):
        array.flags.writeable = False
    return MergedModel(pretrained, unseen, corpus_rows, rows, vocab)
