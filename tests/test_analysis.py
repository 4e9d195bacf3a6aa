"""Unit tests for cosine similarity, neighbor search and drift reports."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from classvec.analysis import cosine, drift, nearest_neighbors
from classvec.embedding_io import BLOCK_ROWS, EmbeddingSet

from _constructions import random_embedding, reference_drift


class TestCosine:
    def test_cardinal_cases(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        assert cosine(a, a) == 1.0
        assert cosine(a, b) == 0.0
        assert cosine(a, -a) == -1.0
        assert cosine(a, 5 * a) == 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(0, 1, 6)
            w = rng.normal(0, 1, 6)
            np.testing.assert_allclose(
                cosine(v, w), cosine(3.7 * v, 0.2 * w), rtol=1e-12
            )

    def test_result_stays_in_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            v = rng.normal(0, 1, 5).astype(np.float32)
            assert -1.0 <= cosine(v, v * rng.uniform(0.1, 10)) <= 1.0
        v = np.full(8, 0.1, dtype=np.float32)
        assert cosine(v, v) == pytest.approx(1.0, rel=1e-12)

    def test_zero_vector_is_an_error(self):
        with pytest.raises(ValueError, match="zero vector"):
            cosine(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="zero vector"):
            cosine(np.ones(3), np.zeros(3))


class TestNearestNeighbors:
    def _emb(self):
        return EmbeddingSet(
            ["q", "same", "близко", "ortho", "anti"],
            np.array(
                [
                    [1.0, 0.0],
                    [2.0, 0.0],     # cosine 1 to q
                    [1.0, 0.2],     # slightly off
                    [0.0, 1.0],     # cosine 0
                    [-1.0, 0.0],    # cosine -1
                ],
                dtype=np.float32,
            ),
        )

    def test_ranking_and_scores(self):
        result = nearest_neighbors(self._emb(), "q", 4)
        names = [t for t, _ in result]
        assert names == ["same", "близко", "ortho", "anti"]
        sims = [s for _, s in result]
        assert sims[0] == pytest.approx(1.0)
        assert sims[2] == pytest.approx(0.0)
        assert sims[3] == pytest.approx(-1.0)
        assert sims == sorted(sims, reverse=True)

    def test_query_is_excluded(self):
        result = nearest_neighbors(self._emb(), "q", 4)
        assert "q" not in [t for t, _ in result]

    def test_ties_rank_in_vocabulary_order(self):
        emb = EmbeddingSet(
            ["q", "twin_b", "twin_a"],
            np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0]], np.float32),
        )
        result = nearest_neighbors(emb, "q", 2)
        assert [t for t, _ in result] == ["twin_b", "twin_a"]

    def test_zero_norm_candidates_are_skipped(self):
        emb = EmbeddingSet(
            ["q", "zero", "real"],
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], np.float32),
        )
        result = nearest_neighbors(emb, "q", 2)
        assert [t for t, _ in result] == ["real"]

    def test_k_bounds(self):
        emb = self._emb()
        with pytest.raises(ValueError, match="k must be"):
            nearest_neighbors(emb, "q", 0)
        with pytest.raises(ValueError, match="k must be"):
            nearest_neighbors(emb, "q", 5)
        assert len(nearest_neighbors(emb, "q", 1)) == 1

    def test_unknown_token_raises_keyerror(self):
        with pytest.raises(KeyError):
            nearest_neighbors(self._emb(), "missing", 1)

    def test_zero_norm_query_is_an_error(self):
        emb = EmbeddingSet(
            ["q", "a"], np.array([[0.0, 0.0], [1.0, 0.0]], np.float32)
        )
        with pytest.raises(ValueError, match="zero vector"):
            nearest_neighbors(emb, "q", 1)


class TestDrift:
    def test_identical_sets_show_no_drift(self):
        rng = np.random.default_rng(2)
        emb = random_embedding(rng, 10, 4)
        report = drift(emb, emb)
        assert len(report.entries) == 10
        assert all(c == 1.0 and s == 0.0 for _, c, s in report.entries)
        assert report.quantiles["cosine_min"] == 1.0
        assert report.quantiles["shift_max"] == 0.0
        assert report.only_before == () and report.only_after == ()

    def test_hand_computed_shift(self):
        before = EmbeddingSet(
            ["a", "b"], np.array([[1.0, 0.0], [0.0, 1.0]], np.float32)
        )
        after = EmbeddingSet(
            ["a", "b"], np.array([[0.0, 2.0], [0.0, 3.0]], np.float32)
        )
        report = drift(before, after)
        by_token = {t: (c, s) for t, c, s in report.entries}
        assert by_token["a"][0] == pytest.approx(0.0)
        assert by_token["a"][1] == pytest.approx(np.sqrt(5.0))
        assert by_token["b"][0] == pytest.approx(1.0)
        assert by_token["b"][1] == pytest.approx(2.0)
        # entries sort ascending by cosine: most-rotated first
        assert [t for t, _, _ in report.entries] == ["a", "b"]

    def test_vocabulary_differences_are_reported(self):
        before = EmbeddingSet(["a", "b"], np.ones((2, 2), np.float32))
        after = EmbeddingSet(["b", "c"], np.ones((2, 2), np.float32))
        report = drift(before, after)
        assert [t for t, _, _ in report.entries] == ["b"]
        assert report.only_before == ("a",)
        assert report.only_after == ("c",)

    def test_quantiles_match_numpy(self):
        rng = np.random.default_rng(3)
        before = random_embedding(rng, 25, 6)
        after = EmbeddingSet(
            before.words,
            before.matrix + rng.normal(0, 0.1, before.matrix.shape).astype(np.float32),
        )
        report = drift(before, after)
        shifts = np.array([s for _, _, s in report.entries])
        np.testing.assert_allclose(
            report.quantiles["shift_median"], np.quantile(shifts, 0.5), rtol=1e-12
        )
        np.testing.assert_allclose(
            report.quantiles["shift_p75"], np.quantile(shifts, 0.75), rtol=1e-12
        )

    def test_errors(self):
        a = EmbeddingSet(["x"], np.ones((1, 2), np.float32))
        b = EmbeddingSet(["x"], np.ones((1, 3), np.float32))
        with pytest.raises(ValueError, match="dimension mismatch"):
            drift(a, b)
        c = EmbeddingSet(["y"], np.ones((1, 2), np.float32))
        with pytest.raises(ValueError, match="share no tokens"):
            drift(a, c)

    def test_to_tsv(self):
        emb = EmbeddingSet(["a"], np.ones((1, 2), np.float32))
        report = drift(emb, emb)
        assert report.to_tsv() == "a\t1.000000\t0.000000"


def _drift_pair(n: int, seed: int) -> tuple[EmbeddingSet, EmbeddingSet]:
    """Sets sharing most tokens: some rows frozen, some zero on one or
    both sides, the rest moved, plus tokens only one side has."""
    rng = np.random.default_rng(seed)
    before = random_embedding(rng, n, 5)
    moved = before.matrix + rng.normal(0, 0.3, before.matrix.shape).astype(np.float32)
    moved[::4] = before.matrix[::4]  # frozen: cosine 1, shift 0
    moved[1::9] = 0.0  # zeroed after
    bmat = before.matrix.copy()
    bmat[2::11] = 0.0  # zero before
    bmat[3::13] = 0.0
    moved[3::13] = 0.0  # zero on both sides
    before = EmbeddingSet(before.words, bmat)
    keep = rng.random(n) < 0.9
    words = [w for w, k in zip(before.words, keep) if k] + ["extra0", "extra1"]
    rows = np.vstack([moved[keep], rng.normal(0, 1, (2, 5)).astype(np.float32)])
    order = rng.permutation(len(words))
    after = EmbeddingSet([words[i] for i in order], rows[order])
    return before, after


@pytest.mark.parametrize(
    "n", sorted({1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1023, 1024, 1025, 2500})
)
def test_drift_matches_per_token_reference(n):
    before, after = _drift_pair(n, n)
    report = drift(before, after)
    entries, quantiles = reference_drift(before, after)
    assert [t for t, _, _ in report.entries] == [t for t, _, _ in entries]
    np.testing.assert_allclose(
        [(c, s) for _, c, s in report.entries], [(c, s) for _, c, s in entries],
        rtol=0, atol=1e-12,
    )
    assert report.quantiles.keys() == quantiles.keys()
    for key, value in quantiles.items():
        assert report.quantiles[key] == pytest.approx(value, rel=0, abs=1e-12)
    assert report.only_before == tuple(t for t in before.words if t not in after)
    assert report.only_after == tuple(t for t in after.words if t not in before)


def test_drift_compares_blocks_not_whole_matrices():
    """Working memory stays well under one n x m float64 array."""
    n, m = 20000, 50
    rng = np.random.default_rng(9)
    before, after = random_embedding(rng, n, m), random_embedding(rng, n, m)
    drift(before, before)  # first-call imports are not drift's
    tracemalloc.start()
    try:
        report = drift(before, after)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.entries) == n
    # peak minus what the returned report holds: the temporaries
    assert peak - current < n * m * 8 / 4, (peak - current, n * m * 8)
