"""Embedding-space inspection: cosine similarity, nearest neighbors, and
before/after drift reports.

Cosines are clamped to [-1, 1] against rounding. Neighbor ties break by
vocabulary order. The drift report covers the shared vocabulary, sorted
ascending by cosine (most-changed tokens first), with five-number
summaries of both the cosine and the Euclidean shift.

:func:`nearest_neighbors` and :func:`drift` take block sources: an
``EmbeddingSet`` or an ``embedding_io.BlockFile`` that streams a file,
read a block at a time through one code path, so neither holds a file's
matrix. A :class:`DriftReport` stores three arrays for the shared pairs,
24 bytes a pair: the pair's row in ``after``, its cosine and its shift,
with the ``after`` tokens; its ``(token, cosine, shift)`` entries are
built from them on demand.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice

import numpy as np

from .embedding_io import BlockFile, EmbeddingSet, errors_after


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Clamped cosine similarity; zero vectors are an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def nearest_neighbors(
    emb: EmbeddingSet | BlockFile, token: str, k: int
) -> list[tuple[str, float]]:
    """Top-k tokens by cosine to ``token``, excluding the query itself.

    ``emb`` is a block source, read whole, then again up to the query's
    block: the first read finds the query and scores its block and every
    later one, the second scores the blocks before it. Rows are scored in
    float64, each on its own, so no cosine depends on its block. The first
    read keeps a running top k; the blocks of the second read, then that
    top k, go into one more, so exact ties rank in vocabulary order.
    Zero-norm candidate rows have no defined cosine and are skipped, so
    the result may hold fewer than k entries when such rows exist.

    A ``BlockFile`` checks that its second read finds the bytes of its
    first, or raises ``EmbeddingChangedError``, so every scored row
    is one the first read found. A token ``emb`` lacks is a ``KeyError``,
    then a ``k`` outside [1, V-1] or a zero query vector a ``ValueError``;
    each is raised once ``emb`` is read whole
    (:func:`~classvec.embedding_io.errors_after`), so that a file's own
    errors come first, as when it is loaded.
    """
    before = 0  # the blocks before the query's
    reader = emb.blocks()
    for tokens, block in reader:
        if token in tokens:
            at = tokens.index(token)
            q = block[at].astype(np.float64)
            break
        before += 1
    else:
        raise KeyError(token)
    qn = math.sqrt(q @ q)
    with errors_after(reader):
        if not 1 <= k < len(emb):
            raise ValueError(f"k must be in [1, {len(emb) - 1}], got {k}")
        if qn == 0.0:
            raise ValueError("cosine of a zero vector is undefined")

    def later() -> Iterator[tuple[list[str], np.ndarray]]:
        """The query's block, the query's cosine dropped, and the rest."""
        sims = _cosines(block, q, qn)
        sims[at] = -np.inf
        yield tokens, sims
        for rest, rows in reader:
            yield rest, _cosines(rows, q, qn)

    def earlier() -> Iterator[tuple[list[str], np.ndarray]]:
        """The blocks before the query's, read again."""
        for again, rows in islice(emb.blocks(), before):
            yield again, _cosines(rows, q, qn)

    late = _best(later(), k)  # after the earlier blocks, so ties rank in row order
    words, best = _best(chain(earlier(), [late]), k)
    return [(t, s) for t, s in zip(words, best.tolist()) if s > -np.inf]


def _cosines(block: np.ndarray, q: np.ndarray, qn: float) -> np.ndarray:
    """The cosine of each row of ``block`` to ``q``, of norm ``qn``, in
    float64 and each on its own; -inf for a zero row, which has none."""
    rows = block.astype(np.float64)
    norms = np.sqrt(_rowdot(rows, rows))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(_rowdot(rows, np.broadcast_to(q, rows.shape)) / (norms * qn),
                      -1.0, 1.0)
    return np.where(norms > 0.0, cos, -np.inf)


def _best(scored: Iterable[tuple[list[str], np.ndarray]], k: int
          ) -> tuple[list[str], np.ndarray]:
    """The k best of the tokens and scores of ``scored``, best first, by a
    stable sort: of equal scores, the one listed first. The candidates are
    read a block at a time and pruned to the k best whenever they are more
    than 2k, once per k rows or more."""
    words: list[str] = []
    scores: list[np.ndarray] = []
    last = ([], np.empty(0))  # prunes the candidates once more at the end
    for item in chain(scored, [last]):
        words += item[0]
        scores.append(item[1])
        if item is last or len(words) > 2 * k:
            joined = np.concatenate(scores)
            order = np.argsort(-joined, kind="stable")[:k]
            words, scores = [words[i] for i in order.tolist()], [joined[order]]
    return words, scores[0]


class _Entries(Sequence):
    """The (token, cosine, shift) tuples of a :class:`DriftReport`, each
    built when it is read."""

    def __init__(self, report: DriftReport):
        self._report = report

    def __len__(self) -> int:
        return len(self._report.rows)

    def __getitem__(self, i):
        r = self._report
        if isinstance(i, slice):
            return tuple(zip(map(r.words.__getitem__, r.rows[i].tolist()),
                             r.cosines[i].tolist(), r.shifts[i].tolist()))
        return r.words[r.rows[i]], float(r.cosines[i]), float(r.shifts[i])

    def __iter__(self):
        return iter(self[:])


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Per-token change between two embedding sets over shared tokens.

    The shared pairs are sorted ascending by cosine, ties in ``before``
    order: ``rows`` holds each pair's row in ``after``, whose tokens, every
    one in row order, are ``words``, and ``cosines`` and ``shifts`` its
    statistics. ``entries``
    gives them as (token, cosine, shift); ``quantiles`` holds min/p25/
    median/p75/max for both statistics. Tokens present in only one set are
    listed separately.
    """

    words: Sequence[str]
    rows: np.ndarray
    cosines: np.ndarray
    shifts: np.ndarray
    quantiles: dict[str, float]
    only_before: tuple[str, ...]
    only_after: tuple[str, ...]

    @property
    def entries(self) -> Sequence[tuple[str, float, float]]:
        return _Entries(self)


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each through the same dot routine as a 1-D
    ``x[i] @ y[i]`` (a stacked 1xm @ mx1 matmul), so every value is
    bit-identical to the per-row product."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


# the quantiles of a drift summary, by name
_QUANTILES = ((0.0, "min"), (0.25, "p25"), (0.5, "median"), (0.75, "p75"), (1.0, "max"))


def _quantile(ascending: np.ndarray, q: float, zeros: int = 0, ones: int = 0) -> float:
    """``np.quantile(values, q)`` of numpy's default linear method, read
    off the values sorted ascending, without the ``numpy.ma`` import (about
    17 ms) that ``np.quantile`` makes on its first call. The values are
    ``zeros`` values 0.0, then ``ascending``, then ``ones`` values 1.0,
    which must be in ascending order too; the 0s and 1s are counted, not
    stored.

    The formula and rounding are numpy's: between the values ``a`` at the
    floor of ``(n-1)*q`` and ``b`` above it, ``a + d*t``, or ``b - d*(1-t)``
    from ``t = 0.5`` on; from the last index on, ``a`` and ``b`` are both
    the last value and ``t`` is the index plus one. The result is therefore
    bit-identical, except that where +0.0 and -0.0 both occur, numpy's
    partial sort may leave the other of the two at an index.
    """
    n = zeros + len(ascending) + ones

    def at(i: int) -> float:
        i %= n
        if i < zeros:
            return 0.0
        return ascending[i - zeros] if i - zeros < len(ascending) else 1.0

    index = (n - 1) * q
    below = math.floor(index) if index < n - 1 else -1
    a, b = at(below), at(below + 1 if below >= 0 else -1)
    t = index - below
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def _pair_stats(vb: np.ndarray, va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and the shift of each row pair of two blocks, compared
    in float64. The cosine of a pair with a zero-norm side is 1.0 when both
    rows are identical, else 0.0."""
    vb, va = vb.astype(np.float64), va.astype(np.float64)
    diff = va - vb
    shift = np.sqrt(_rowdot(diff, diff))
    nb, na = np.sqrt(_rowdot(vb, vb)), np.sqrt(_rowdot(va, va))
    zero = (nb == 0.0) | (na == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.clip(_rowdot(vb, va) / (nb * na), -1.0, 1.0)
    return np.where(zero, np.where(shift == 0.0, 1.0, 0.0), cos), shift


def _summary(
    cosines: np.ndarray, shifts: np.ndarray, unchanged: int = 0
) -> dict[str, float]:
    """The quantiles of a drift report, from both statistics sorted
    ascending, and ``unchanged`` more pairs at cosine 1 and shift 0.
    Cosines are at most 1 and shifts at least 0, so those pairs sort
    last and first."""
    return {
        **{f"cosine_{tag}": _quantile(cosines, q, ones=unchanged) for q, tag in _QUANTILES},
        **{f"shift_{tag}": _quantile(shifts, q, zeros=unchanged) for q, tag in _QUANTILES},
    }


def drift(before: EmbeddingSet | BlockFile, after: EmbeddingSet | BlockFile
          ) -> DriftReport:
    """Compare two embedding sets token by token.

    Both sides are block sources, each read once. While the two list the
    same tokens, a block of ``before`` and a block of ``after`` at a time,
    each pair of blocks is compared whole; ``finetune``'s output lists the
    pretrained tokens in their order, so its blocks agree up to its unseen
    rows. From the first pair of blocks that differ on, the rest of
    ``after`` is read and its rows kept, and the rest of ``before`` is
    compared with them token by token, a block at a time: files in other
    orders hold at most one set's rows. No token of ``before`` is kept
    beyond its block but those ``after`` lacks. Each side's own read finds
    its repeated tokens, once it ends.

    The cosine of a pair with a zero-norm side is defined as 1.0 when both
    rows are identical, else 0.0 (fine-tuning never zeroes a vector; this
    only pads pathological inputs). Rows are compared in float64, a block
    at a time, so no temporary spans the whole vocabulary. Errors come as
    when ``after`` is loaded first
    (:func:`~classvec.embedding_io.errors_after`): any error of ``after``,
    then a dimension mismatch, then an error of ``before``.
    """
    words: list[str] = []  # every after token read, in order
    after_blocks = after.blocks()
    agree = True  # while the sides list the same tokens, block by block
    # once they differ, the after rows not paired yet, by token: row and
    # bytes; empty while they agree, when every after token read is paired
    rest: dict[str, tuple[int, bytes]] = {}
    only_before: dict[str, None] = {}
    # the pairs compared, in before order: their after rows (int64),
    # cosines and shifts (float64), as bytes that grow in place
    pairs = (bytearray(), bytearray(), bytearray())
    with errors_after(after_blocks):
        if before.dim != after.dim:
            raise ValueError(f"dimension mismatch: {before.dim} vs {after.dim}")
        row_bytes = np.dtype((np.void, 4 * after.dim))
        for tokens, vb in before.blocks():
            if agree:
                ta, va = next(after_blocks, ([], None))
                if ta == tokens:
                    paired = np.arange(len(words), len(words) + len(ta), dtype=np.int64)
                    words += ta
                else:
                    agree = False
                    for ta, va in chain([(ta, va)] if ta else [], after_blocks):
                        at = range(len(words), len(words) + len(ta))
                        rest.update(zip(ta, zip(at, np.ascontiguousarray(va)
                                                .view(row_bytes).ravel().tolist())))
                        words += ta
            if not agree:
                # a repeat, which the read reports once it ends, finds none
                taken = [rest.pop(t, None) for t in tokens]
                hit = np.array([pair is not None for pair in taken], dtype=bool)
                only_before.update(dict.fromkeys(compress(tokens, ~hit)))
                taken = list(compress(taken, hit))
                paired = np.array([row for row, _ in taken], dtype=np.int64)
                vb = vb[hit]
                va = np.frombuffer(b"".join([v for _, v in taken]), dtype=np.float32
                                   ).reshape(len(taken), after.dim)
            for part, values in zip(pairs, (paired, *_pair_stats(vb, va))):
                part += values.tobytes()
        for ta, _ in after_blocks:  # the after rows past the last before row
            words += ta
    rows, cosines, shifts = (np.frombuffer(part, dtype) for part, dtype in
                             zip(pairs, (np.int64, np.float64, np.float64)))
    del pairs  # each buffer is freed once its array is sorted
    if not len(rows):
        raise ValueError("the two sets share no tokens")
    only_after = tuple(words[len(rows):] if agree else rest)
    rest.clear()  # freed before the sort
    # pairs are compared in before order, so a stable sort keeps it for
    # ties; one array at a time, so the sort holds one more array, not three
    order = np.argsort(cosines, kind="stable")
    rows = rows[order]
    cosines = cosines[order]
    shifts = shifts[order]
    return DriftReport(
        words=words, rows=rows, cosines=cosines, shifts=shifts,
        quantiles=_summary(cosines, np.sort(shifts)),
        only_before=tuple(only_before), only_after=only_after,
    )


def drift_summary(
    before: np.ndarray, after: np.ndarray, unchanged: int = 0
) -> dict[str, float]:
    """The quantiles of :func:`drift` over the row pairs ``before[i]``,
    ``after[i]`` and ``unchanged`` pairs of identical rows, which are not
    compared: each enters as cosine exactly 1 and shift 0. For a caller
    that knows which rows it left alone, such as ``finetune``."""
    if len(before) + unchanged == 0:
        raise ValueError("no row pairs to compare")
    cosines = np.empty(len(before))
    shifts = np.empty(len(before))
    # pairs of 2^14 values at a time, so that the float64 temporaries stay
    # near 128 kB at any width; each pair's statistics are its own
    step = max(1, (1 << 14) // before.shape[1])
    for start in range(0, len(before), step):
        stop = start + step
        cosines[start:stop], shifts[start:stop] = _pair_stats(
            before[start:stop], after[start:stop]
        )
    return _summary(np.sort(cosines), np.sort(shifts), unchanged)
