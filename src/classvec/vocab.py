"""Training vocabulary extraction and pretrained/corpus vocabulary merging.

A merged model seeds fine-tuning from the rows of the corpus words alone.
:func:`merge` reads the pretrained vectors once, a block of rows at a
time, from any block source: an ``EmbeddingSet`` or an
``embedding_io.BlockFile`` streaming a file. It keeps the pretrained row
of each corpus word and gives the corpus words missing from it seeded
random rows; its row space is the pretrained rows followed by those.
Training touches only the rows of corpus words, and
:class:`TunedEmbedding` reads the source a second time, a block at a
time, writing the tuned rows over the corpus words' rows and passing
every other row through bit for bit. Written in the format of a
``BlockFile`` source, those frozen rows are the file's bytes, neither
parsed nor formatted again; only the corpus words' rows are formatted.
A ``BlockFile`` checks that this second read finds the bytes of the
first, so no row of a file changed in between reaches the tuned
vectors. The vocabulary keeps
the corpus it counted, so a merged model carries the documents it is
tuned on.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import Callable, Iterator

import numpy as np

from . import _kernel
from .corpus import LabeledCorpus
from .embedding_io import BLOCK_ROWS, BlockFile, EmbeddingSet, encode_rows, token_problem


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

    The writers take its rows from :meth:`encoded`: over a ``BlockFile``
    of their format, each block of the file's bytes is copied with only
    its corpus rows formatted, so no frozen row is parsed or formatted
    again. :meth:`blocks` reads the pretrained source a second time and
    writes the tuned rows over each block's corpus rows in place, so a
    write holds a block of rows, not the merged matrix; every other row
    passes through as the source yields it. It serves every other source
    and format, and :meth:`embedding_set`, which collects them for a
    caller that wants the tuned vectors as an :class:`EmbeddingSet`.
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

    def _tuned(self) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
        """A function of ``(start, count)`` that gives the tuned rows among
        merged rows ``start`` to ``start + count``: their offsets from
        ``start``, ascending, and their ``rows``."""
        order = np.argsort(self.model.rows)  # vocabulary rows by merged row
        at = self.model.rows[order]

        def tuned(start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = np.searchsorted(at, (start, start + count))
            return at[lo:hi] - start, self.rows[order[lo:hi]]

        return tuned

    def _unseen(self, tuned) -> Iterator[tuple[list[str], np.ndarray]]:
        """The unseen tokens and their rows, a block at a time."""
        unseen, start = self.model.unseen, len(self.model.pretrained)
        for i in range(0, len(unseen), BLOCK_ROWS):
            words = list(unseen[i:i + BLOCK_ROWS])
            yield words, tuned(start + i, len(words))[1]

    def blocks(self) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and float32 rows of each block of merged rows, in order:
        the pretrained source's blocks, then the unseen rows.

        A ``BlockFile`` source raises ``EmbeddingChangedError`` before it
        yields a block whose bytes differ from those :func:`merge` read,
        corpus and frozen rows alike."""
        tuned = self._tuned()
        start = 0
        for tokens, block in self.model.pretrained.blocks():
            if not block.flags.writeable:  # an EmbeddingSet's own rows
                block = block.copy()
            at, rows = tuned(start, len(tokens))
            block[at] = rows
            yield tokens, block
            start += len(tokens)
        yield from self._unseen(tuned)

    def encoded(self, fmt: str, values: Callable[[np.ndarray], list[bytes]]
                ) -> Iterator[bytes]:
        """The merged rows in ``fmt``, as the writers write them, in pieces
        of bytes to be written one after another: ``values`` gives the
        value bytes of each row of a float32 block.

        Over a ``BlockFile`` of ``fmt``, each block is the file's bytes
        (:meth:`~classvec.embedding_io.BlockFile.raw_blocks`, which checks
        them against those :func:`merge` read), with the values of its
        corpus rows replaced; only those rows and the unseen ones are
        formatted. Frozen rows come out as the file holds them, so a text
        file not written as ``save_text`` writes keeps its frozen rows'
        numerals. Any other source is formatted from :meth:`blocks`."""
        source = self.model.pretrained
        if not (isinstance(source, BlockFile) and source.fmt == fmt):
            for words, block in self.blocks():
                yield encode_rows(fmt, words, values(block))
            return
        tuned = self._tuned()
        start = 0
        for raw, count in source.raw_blocks():
            at, rows = tuned(start, count)
            yield from source.splice(raw, at.tolist(), values(rows))
            start += count
        for words, rows in self._unseen(tuned):
            yield encode_rows(fmt, words, values(rows))

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
    """Seeded uniform rows on [-0.5/dim, +0.5/dim), one per unseen token:
    ``_kernel.seeded_rows`` of the seed's unseen-row stream, as float32."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rows = _kernel.seeded_rows(seed, _kernel.STREAM_UNSEEN, len(unseen), dim)
    return rows.astype(np.float32)


def merge(pretrained: EmbeddingSet | BlockFile, vocab: Vocabulary, seed: int
          ) -> MergedModel:
    """Read ``pretrained`` once, a block at a time, keeping the rows of the
    corpus tokens, and give the corpus tokens it lacks seeded rows, which
    follow the pretrained rows in vocabulary order.

    ``pretrained`` is any block source (``len``, ``dim`` and
    ``blocks()``): an ``EmbeddingSet``, or a ``BlockFile`` that streams
    a file with every check of a load. The model holds no pretrained row
    beyond those of the corpus tokens; the result is deterministic in
    (pretrained, vocab, seed). A corpus token the source lacks that
    ``embedding_io.token_problem`` refuses is a ``ValueError``: the
    word2vec formats cannot hold it.
    """
    dim = pretrained.dim
    blocks = pretrained.blocks()
    # the first block is read before the rows are allocated, so that an
    # error of the source, such as a block too large to allocate, comes first
    first = list(islice(blocks, 1))
    corpus_rows = np.empty((len(vocab), dim), dtype=np.float32)
    rows = np.full(len(vocab), -1, dtype=np.int64)
    start = 0
    for tokens, block in chain(first, blocks):
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
    for token in unseen:
        if problem := token_problem(token):
            raise ValueError(f"corpus token {token!r} {problem}, "
                             "which no embedding file can hold")
    rows[missing] = np.arange(start, start + len(missing))
    corpus_rows[missing] = init_unseen(list(unseen), dim, seed)
    for array in (corpus_rows, rows):
        array.flags.writeable = False
    return MergedModel(pretrained, unseen, corpus_rows, rows, vocab)
