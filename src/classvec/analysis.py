"""Embedding-space inspection: cosine similarity, nearest neighbors, and
before/after drift reports.

Cosines are clamped to [-1, 1] against rounding. Neighbor ties break by
vocabulary order. The drift report covers the shared vocabulary, sorted
ascending by cosine (most-changed tokens first), with five-number
summaries of both the cosine and the Euclidean shift.

:func:`drift` reads the ``before`` side block by block, so it can stream
a file (an ``embedding_io.BlockFile``) against a loaded ``after`` set. A
:class:`DriftReport` stores three arrays for the shared pairs, 24 bytes a
pair: the pair's row in ``after``, its cosine and its shift, with the
``after`` set's token list; its ``(token, cosine, shift)`` entries are
built from them on demand.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .embedding_io import BLOCK_ROWS, BlockFile, EmbeddingSet


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Clamped cosine similarity; zero vectors are an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def nearest_neighbors(
    emb: EmbeddingSet, token: str, k: int
) -> list[tuple[str, float]]:
    """Top-k tokens by cosine to ``token``, excluding the query itself.

    Exact ties rank in vocabulary order. Zero-norm candidate rows have no
    defined cosine and are skipped, so the result may hold fewer than k
    entries when such rows exist. Rows are scored in float64, ``BLOCK_ROWS``
    at a time and each on its own, so no cosine depends on its block.
    """
    if token not in emb.index:
        raise KeyError(token)
    if not 1 <= k < len(emb):
        raise ValueError(f"k must be in [1, {len(emb) - 1}], got {k}")
    qi = emb.index[token]
    q = emb.matrix[qi].astype(np.float64)
    qn = math.sqrt(q @ q)
    if qn == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    # -inf marks the rows without a cosine: the query and zero rows
    sims = np.empty(len(emb))
    for start in range(0, len(emb), BLOCK_ROWS):
        block = emb.matrix[start:start + BLOCK_ROWS].astype(np.float64)
        norms = np.sqrt(_rowdot(block, block))
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.clip(_rowdot(block, np.broadcast_to(q, block.shape)) / (norms * qn),
                          -1.0, 1.0)
        sims[start:start + BLOCK_ROWS] = np.where(norms > 0.0, cos, -np.inf)
    sims[qi] = -np.inf
    order = np.argsort(-sims, kind="stable")[:k]
    return [(emb.words[i], float(sims[i])) for i in order if sims[i] > -np.inf]


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
    order: ``rows`` holds each pair's row in ``after``, whose tokens are
    ``words``, and ``cosines`` and ``shifts`` its statistics. ``entries``
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


def drift(before: EmbeddingSet | BlockFile, after: EmbeddingSet) -> DriftReport:
    """Compare two embedding sets token by token.

    ``before`` is read block by block, once: a ``BlockFile`` streams its
    file, and its reader records each block's tokens through this
    comparison, so that no token of ``before`` is kept beyond its block
    but the ones ``after`` lacks. The cosine of a pair with a zero-norm
    side is defined as 1.0 when both rows are identical, else 0.0
    (fine-tuning never zeroes a vector; this only pads pathological
    inputs). Rows are compared in float64, a block at a time, so no
    temporary spans the whole vocabulary.
    """
    if before.dim != after.dim:
        raise ValueError(
            f"dimension mismatch: {before.dim} vs {after.dim}"
        )
    size = min(len(before), len(after))
    rows = np.empty(size, dtype=np.int64)
    cosines = np.empty(size)
    shifts = np.empty(size)
    matched = np.zeros(len(after), dtype=bool)
    only_before: dict[str, None] = {}
    # the after row of each token of the block recorded last, -1 where
    # after lacks it: the reader records a block just before yielding it
    found = rows[:0]

    def add(tokens: list[str], row: int) -> bool:
        """The reader's record of ``before`` tokens: a token ``after`` has
        is recorded by its row there, any other by itself."""
        nonlocal found
        at = np.fromiter(map(after.index.get, tokens, repeat(-1)),
                         dtype=np.int64, count=len(tokens))
        hits = at[at >= 0]
        missing = list(compress(tokens, (at < 0).tolist()))
        if (len(set(tokens)) != len(tokens) or matched[hits].any()
                or not only_before.keys().isdisjoint(missing)):
            return False
        matched[hits] = True
        only_before.update(dict.fromkeys(missing))
        found = at
        return True

    shared = 0
    for _, block in before.blocks(add):
        hit = found >= 0
        stop = shared + int(hit.sum())
        rows[shared:stop] = found[hit]
        cosines[shared:stop], shifts[shared:stop] = _pair_stats(
            block[hit], after.matrix[found[hit]]
        )
        shared = stop
    if not shared:
        raise ValueError("the two sets share no tokens")
    # one array at a time, so the sort holds one more array, not three
    order = np.argsort(cosines[:shared], kind="stable")
    rows = rows[order]
    cosines = cosines[order]
    shifts = shifts[order]
    return DriftReport(
        words=after.words, rows=rows, cosines=cosines, shifts=shifts,
        quantiles=_summary(cosines, np.sort(shifts)),
        only_before=tuple(only_before),
        only_after=tuple(compress(after.words, (~matched).tolist())),
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
