"""Embedding-space inspection: cosine similarity, nearest neighbors, and
before/after drift reports.

Cosines are clamped to [-1, 1] against rounding. Neighbor ties break by
vocabulary order. The drift report covers the shared vocabulary, sorted
ascending by cosine (most-changed tokens first), with five-number
summaries of both the cosine and the Euclidean shift.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .embedding_io import BLOCK_ROWS, EmbeddingSet


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
    entries when such rows exist.
    """
    if token not in emb.index:
        raise KeyError(token)
    if not 1 <= k < len(emb):
        raise ValueError(f"k must be in [1, {len(emb) - 1}], got {k}")
    q = emb.matrix[emb.index[token]].astype(np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    matrix = emb.matrix.astype(np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    keep = norms > 0.0
    keep[emb.index[token]] = False
    candidates = np.flatnonzero(keep)
    sims = np.clip(matrix[candidates] @ q / (norms[candidates] * qn), -1.0, 1.0)
    order = np.argsort(-sims, kind="stable")[:k]
    return [(emb.words[candidates[i]], float(sims[i])) for i in order]


@dataclass(frozen=True)
class DriftReport:
    """Per-token change between two embedding sets over shared tokens.

    ``entries`` are (token, cosine, shift) sorted ascending by cosine;
    ``quantiles`` holds min/p25/median/p75/max for both statistics.
    Tokens present in only one set are listed separately.
    """

    entries: tuple[tuple[str, float, float], ...]
    quantiles: dict[str, float]
    only_before: tuple[str, ...]
    only_after: tuple[str, ...]

    def to_tsv(self) -> str:
        """Tab-separated records, one ``token cosine shift`` per line."""
        return "\n".join(
            f"{t}\t{c:.6f}\t{s:.6f}" for t, c, s in self.entries
        )


def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products, each through the same dot routine as a 1-D
    ``x[i] @ y[i]`` (a stacked 1xm @ mx1 matmul), so every value is
    bit-identical to the per-row product."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def drift(before: EmbeddingSet, after: EmbeddingSet) -> DriftReport:
    """Compare two embedding sets token by token.

    The cosine of a pair with a zero-norm side is defined as 1.0 when
    both rows are identical, else 0.0 (fine-tuning never zeroes a vector;
    this only pads pathological inputs). Rows are compared in float64,
    ``BLOCK_ROWS`` at a time, so no temporary spans the whole vocabulary.
    """
    if before.dim != after.dim:
        raise ValueError(
            f"dimension mismatch: {before.dim} vs {after.dim}"
        )
    in_after = np.fromiter(
        map(after.index.get, before.words, repeat(-1)), dtype=np.int64,
        count=len(before),
    )
    shared_b = np.flatnonzero(in_after >= 0)
    shared_a = in_after[shared_b]
    if not len(shared_b):
        raise ValueError("the two sets share no tokens")
    cosines = np.empty(len(shared_b))
    shifts = np.empty(len(shared_b))
    for start in range(0, len(shared_b), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        vb = before.matrix[shared_b[start:stop]].astype(np.float64)
        va = after.matrix[shared_a[start:stop]].astype(np.float64)
        diff = va - vb
        shift = np.sqrt(_rowdot(diff, diff))
        nb, na = np.sqrt(_rowdot(vb, vb)), np.sqrt(_rowdot(va, va))
        zero = (nb == 0.0) | (na == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.clip(_rowdot(vb, va) / (nb * na), -1.0, 1.0)
        cosines[start:stop] = np.where(zero, np.where(shift == 0.0, 1.0, 0.0), cos)
        shifts[start:stop] = shift
    order = np.argsort(cosines, kind="stable")
    tokens = np.array(before.words, dtype=object)[shared_b[order]]
    cosines, shifts = cosines[order], shifts[order]
    quantiles: dict[str, float] = {}
    for name, values in (("cosine", cosines), ("shift", shifts)):
        for q, tag in ((0.0, "min"), (0.25, "p25"), (0.5, "median"),
                       (0.75, "p75"), (1.0, "max")):
            quantiles[f"{name}_{tag}"] = float(np.quantile(values, q))
    return DriftReport(
        entries=tuple(zip(tokens, cosines.tolist(), shifts.tolist())),
        quantiles=quantiles,
        only_before=tuple(t for t in before.words if t not in after.index),
        only_after=tuple(t for t in after.words if t not in before.index),
    )
