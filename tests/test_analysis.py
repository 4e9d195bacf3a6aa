"""Unit tests for cosine similarity, neighbor search and drift reports."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from classvec.cli import main

from classvec.analysis import (
    _QUANTILES,
    _quantile,
    cosine,
    drift,
    drift_summary,
    nearest_neighbors,
)
from classvec.embedding_io import (
    BLOCK_ROWS,
    FORMATS,
    BlockFile,
    EmbeddingChangedError,
    EmbeddingSet,
    load_file,
    save_binary,
    save_text,
)

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

    def test_clones_tie_across_block_boundaries(self):
        # identical rows at every offset in a block get one cosine, bit for
        # bit, so they rank in vocabulary order wherever the blocks fall
        rng = np.random.default_rng(3)
        n, m = 3 * BLOCK_ROWS + 5, 7
        matrix = rng.normal(0, 1, (n, m)).astype(np.float32)
        clones = [5, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3, n - 1]
        matrix[clones] = rng.normal(0, 1, m).astype(np.float32)
        matrix[1] = matrix[5] + np.float32(0.01)
        emb = EmbeddingSet([f"t{i}" for i in range(n)], matrix)
        result = nearest_neighbors(emb, "t1", len(clones))
        assert [t for t, _ in result] == [f"t{i}" for i in clones]
        assert len({s for _, s in result}) == 1

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
        for col, name in ((1, "cosine"), (2, "shift")):
            values = np.array([e[col] for e in report.entries])
            for q, tag in _QUANTILES:
                assert report.quantiles[f"{name}_{tag}"] == float(np.quantile(values, q))

    def test_quantile_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(4)
        sizes = [*range(1, 65), *rng.integers(65, 10_000, 40)]
        for n in sizes:
            for values in (
                rng.normal(size=n),
                rng.integers(-3, 4, n).astype(np.float64),  # ties
                rng.random(n) * 10.0 ** rng.integers(-300, 300, n),
                np.full(n, -0.0),
            ):
                ascending = np.sort(values)
                for q, _ in _QUANTILES:
                    ours, numpys = _quantile(ascending, q), float(np.quantile(values, q))
                    assert np.float64(ours).tobytes() == np.float64(numpys).tobytes()

    def test_quantile_of_mixed_zeros_has_numpys_value(self):
        # numpy's partial sort may order +0.0 and -0.0 otherwise: same value,
        # perhaps the other sign
        rng = np.random.default_rng(5)
        for n in range(1, 40):
            values = np.where(rng.random(n) < 0.5, -0.0, 0.0)
            for q, _ in _QUANTILES:
                assert _quantile(np.sort(values), q) == np.quantile(values, q) == 0.0

    def test_counted_zeros_and_ones_read_as_stored_ones(self):
        # 0s before shifts and 1s after cosines, as drift_summary counts
        # its unchanged pairs: the quantiles of the run they stand for
        rng = np.random.default_rng(6)
        for n in range(0, 30):
            shifts, cosines = np.sort(rng.random(n) * 3), np.sort(rng.uniform(-1, 1, n))
            for k in (0, 1, 2, 7, 1000):
                if n + k == 0:
                    continue
                for q, _ in _QUANTILES:
                    stored = _quantile(np.concatenate([np.zeros(k), shifts]), q)
                    assert _quantile(shifts, q, zeros=k) == stored
                    stored = _quantile(np.concatenate([cosines, np.ones(k)]), q)
                    assert _quantile(cosines, q, ones=k) == stored

    def test_summary_allocates_nothing_per_unchanged_pair(self):
        rng = np.random.default_rng(7)
        before = rng.normal(size=(50, 4)).astype(np.float32)
        after = before + np.float32(0.5)
        drift_summary(before, after, 3)  # first-call imports
        tracemalloc.start()
        try:
            q = drift_summary(before, after, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000, peak
        assert (q["cosine_p25"], q["shift_p75"]) == (1.0, 0.0)
        assert q["cosine_min"] < 1.0 and q["shift_max"] > 0.0

    def test_summary_of_no_pairs_is_an_error(self):
        with pytest.raises(ValueError, match="no row pairs to compare"):
            drift_summary(np.empty((0, 4), np.float32), np.empty((0, 4), np.float32))
        q = drift_summary(np.empty((0, 4), np.float32), np.empty((0, 4), np.float32), 1)
        assert (q["cosine_min"], q["shift_max"]) == (1.0, 0.0)

    def test_errors(self):
        a = EmbeddingSet(["x"], np.ones((1, 2), np.float32))
        b = EmbeddingSet(["x"], np.ones((1, 3), np.float32))
        with pytest.raises(ValueError, match="dimension mismatch"):
            drift(a, b)
        c = EmbeddingSet(["y"], np.ones((1, 2), np.float32))
        with pytest.raises(ValueError, match="share no tokens"):
            drift(a, c)


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


def _write(emb: EmbeddingSet, path, fmt: str) -> str:
    with open(path, "wb") as f:
        (save_text if fmt == "text" else save_binary)(emb, f)
    return str(path)


def _printed(report, top: int) -> str:
    """What ``classvec drift --top top`` prints for ``report``."""
    q = report.quantiles
    lines = [
        "drift\tcosine[min={cosine_min:.6f} p25={cosine_p25:.6f} "
        "median={cosine_median:.6f} p75={cosine_p75:.6f} "
        "max={cosine_max:.6f}]\tshift[min={shift_min:.6f} "
        "median={shift_median:.6f} max={shift_max:.6f}]".format(**q),
        f"shared={len(report.entries)}\tonly_before={len(report.only_before)}"
        f"\tonly_after={len(report.only_after)}",
        f"{'token':<24}{'cosine':>10}{'shift':>12}",
        *(f"{t:<24}{c:>10.6f}{s:>12.6f}" for t, c, s in list(report.entries)[:top]),
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 1025])
def test_drift_streamed_from_files_matches_in_memory_and_reference(tmp_path, capsys, fmt, n):
    before, after = _drift_pair(n, n)
    pre = _write(before, tmp_path / "before", fmt)
    post = _write(after, tmp_path / "after", fmt)
    in_memory = drift(before, after)
    with BlockFile(pre, fmt) as source:
        streamed = drift(source, load_file(post, fmt))
    assert tuple(streamed.entries) == tuple(in_memory.entries)
    assert streamed.quantiles == in_memory.quantiles
    assert streamed.only_before == in_memory.only_before
    assert streamed.only_after == in_memory.only_after
    entries, quantiles = reference_drift(before, after)
    assert [t for t, _, _ in streamed.entries] == [t for t, _, _ in entries]
    np.testing.assert_allclose([(c, s) for _, c, s in streamed.entries],
                               [(c, s) for _, c, s in entries], rtol=0, atol=1e-12)
    for key, value in quantiles.items():
        assert streamed.quantiles[key] == pytest.approx(value, rel=0, abs=1e-12)
    shared = len(entries)
    for top in (0, 5, shared, shared + 1):
        argv = ["drift", "--before", pre, "--after", post, "--format", fmt, "--top", str(top)]
        assert main(argv) == 0
        assert capsys.readouterr().out == _printed(in_memory, top)


def test_entries_are_built_from_the_report_arrays():
    before, after = _drift_pair(300, 1)
    report = drift(before, after)
    entries = tuple(report.entries)
    assert len(report.entries) == len(entries) == len(report.rows)
    assert report.entries[3] == entries[3] and report.entries[-1] == entries[-1]
    assert report.entries[2:9] == entries[2:9] and report.entries[:0] == ()
    assert [after.words[r] for r in report.rows.tolist()] == [t for t, _, _ in entries]
    assert report.rows.dtype == np.int64
    assert report.cosines.dtype == report.shifts.dtype == np.float64


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


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
def test_drift_streams_before_in_a_block_of_memory(tmp_path, fmt):
    """Streaming --before, drift holds less than a quarter of its float32
    matrix beyond the after set and the returned report: no second matrix,
    no before token but those after lacks, 24 bytes a shared pair."""
    n, m = 20000, 50
    rng = np.random.default_rng(11)
    before = random_embedding(rng, n, m)
    after = EmbeddingSet(before.words, before.matrix + np.float32(0.25))
    path = _write(before, tmp_path / "before", fmt)
    del before
    with BlockFile(path, fmt) as source:
        drift(source, after)  # first-call imports are not drift's
    tracemalloc.start()
    try:
        with BlockFile(path, fmt) as source:
            report = drift(source, after)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.entries) == n
    assert peak - current < n * m * 4 / 4, (peak - current, n * m * 4)


def test_nearest_neighbors_scores_blocks_not_the_whole_matrix():
    """Working memory stays well under one n x m float64 array."""
    n, m = 20000, 50
    emb = random_embedding(np.random.default_rng(10), n, m)
    nearest_neighbors(emb, emb.words[0], 10)  # first-call imports are not its
    tracemalloc.start()
    try:
        result = nearest_neighbors(emb, emb.words[1], 10)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 10
    assert peak - current < n * m * 8 / 4, (peak - current, n * m * 8)


def _reference_neighbors(emb: EmbeddingSet, token: str, k: int) -> list[tuple[str, float]]:
    """Brute-force neighbors: each row's cosine to the query in float64,
    row by row, then a stable sort, so ties keep vocabulary order."""
    matrix = emb.matrix.astype(np.float64)
    qi = emb.index[token]
    q = matrix[qi]
    qn = math.sqrt(q @ q)
    scored = []
    for i, row in enumerate(matrix):
        norm = math.sqrt(row @ row)
        if i != qi and norm > 0.0:
            scored.append((emb.words[i], float(np.clip(row @ q / (norm * qn), -1.0, 1.0))))
    scored.sort(key=lambda entry: -entry[1])
    return scored[:k]


def _neighbor_set() -> EmbeddingSet:
    """Rows with exact ties across a block boundary: clones of one vector
    at rows 250-262, zero rows, and the first and last rows near the
    clones."""
    rng = np.random.default_rng(12)
    n, m = 3 * BLOCK_ROWS + 7, 6
    matrix = rng.normal(0, 1, (n, m)).astype(np.float32)
    clone = rng.normal(0, 1, m).astype(np.float32)
    matrix[BLOCK_ROWS - 6:BLOCK_ROWS + 7] = clone
    matrix[[3, BLOCK_ROWS + 9, 2 * BLOCK_ROWS, n - 2]] = 0.0
    matrix[[0, n - 1]] = clone + rng.normal(0, 0.05, (2, m)).astype(np.float32)
    return EmbeddingSet([f"t{i}" for i in range(n)], matrix)


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", [None, *FORMATS])
def test_neighbors_match_a_brute_force_reference(tmp_path, fmt):
    # streamed from either format (fmt) or read from the set itself
    emb = _neighbor_set()
    path = _write(emb, tmp_path / "emb", fmt) if fmt else None
    for token in ("t0", f"t{len(emb) - 1}"):
        for k in (1, 5, 13, 14, 40, len(emb) - 1):
            if path is None:
                got = nearest_neighbors(emb, token, k)
            else:
                with BlockFile(path, fmt) as source:
                    got = nearest_neighbors(source, token, k)
            assert got == _reference_neighbors(emb, token, k), (token, k)
    # the query's 13 clones tie exactly, in vocabulary order across the
    # block boundary, and the 4 zero rows have no cosine
    top = nearest_neighbors(emb, "t0", 13)
    assert [t for t, _ in top] == [f"t{i}" for i in range(BLOCK_ROWS - 6, BLOCK_ROWS + 7)]
    assert len({s for _, s in top}) == 1
    assert len(nearest_neighbors(emb, "t0", len(emb) - 1)) == len(emb) - 5


@pytest.mark.parametrize("fmt", FORMATS)
def test_neighbors_fail_when_the_file_changes_between_their_reads(tmp_path, fmt):
    # the second read goes up to the query's block, the third here: a row
    # or a token changed there fails, and the query's own row is read once
    emb = _neighbor_set()
    path = _write(emb, tmp_path / "emb", fmt)
    query = f"t{2 * BLOCK_ROWS + 1}"

    def changed(row: int, scale: float = 1.0, token: str | None = None):
        matrix = emb.matrix.copy()
        matrix[row] *= np.float32(scale)
        words = list(emb.words)
        words[row] = token or words[row]
        return EmbeddingSet(words, matrix)

    for rewrite, message in (
        (changed(BLOCK_ROWS + 30, scale=2.0),
         f"rows {BLOCK_ROWS + 1} to {2 * BLOCK_ROWS} do not hold the vectors read there before"),
        (changed(5, token="tX"), f"rows 1 to {BLOCK_ROWS} do not hold the tokens read there before"),
        (changed(2 * BLOCK_ROWS + 1, scale=2.0), None),
    ):

        class Rewritten(BlockFile):
            """The file is rewritten once its first read has ended."""
            reads = 0

            def blocks(self, add=None):
                if self.reads == 1:
                    _write(rewrite, path, fmt)
                self.reads += 1
                return super().blocks(add)

        _write(emb, path, fmt)
        with Rewritten(path, fmt) as source:
            if message is None:
                assert nearest_neighbors(source, query, 3) == \
                    _reference_neighbors(emb, query, 3)
                continue
            with pytest.raises(EmbeddingChangedError,
                               match=f"^the file changed after it was first read: {message}$"):
                nearest_neighbors(source, query, 3)


def _after_of(before: EmbeddingSet, order: str, seed: int) -> EmbeddingSet:
    """``before`` moved: frozen, zeroed and moved rows, some tokens dropped
    (``one_side``), two extra tokens at the end, in ``order``."""
    rng = np.random.default_rng(seed)
    n = len(before)
    moved = before.matrix + rng.normal(0, 0.3, before.matrix.shape).astype(np.float32)
    moved[::4] = before.matrix[::4]
    moved[1::9] = 0.0
    keep = rng.random(n) < 0.9 if order == "one_side" else np.ones(n, bool)
    words = [w for w, k in zip(before.words, keep) if k] + ["extra0", "extra1"]
    rows = np.vstack([moved[keep], rng.normal(0, 1, (2, before.dim)).astype(np.float32)])
    perm = {"reversed": np.arange(len(words))[::-1],
            "shuffled": rng.permutation(len(words))}.get(order, np.arange(len(words)))
    return EmbeddingSet([words[i] for i in perm], rows[perm])


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("order", ["same", "reversed", "shuffled", "one_side"])
@pytest.mark.parametrize("n", [BLOCK_ROWS, 2 * BLOCK_ROWS + 37])
def test_drift_of_two_streams_matches_the_per_token_reference(tmp_path, fmt, order, n):
    sets = {"old": random_embedding(np.random.default_rng(n), n, 5)}
    sets["new"] = _after_of(sets["old"], order, n)
    paths = {name: _write(emb, tmp_path / name, fmt) for name, emb in sets.items()}
    # each way round, so that tokens are on one side only on either side
    pairs = [("old", "new"), ("new", "old")]
    if fmt == "text" and order == "reversed" and n > BLOCK_ROWS + 30:
        # one row at '%.17g', which the kernel's scanner declines: the
        # kernel then reads before in blocks of 256, 30, 256 and 7 rows,
        # whose edges are not after's
        lines = (tmp_path / "old").read_bytes().split(b"\n")
        row = BLOCK_ROWS + 30
        lines[row + 1] = " ".join([sets["old"].words[row], *(
            "%.17g" % v for v in sets["old"].matrix[row].tolist())]).encode()
        (tmp_path / "wide").write_bytes(b"\n".join(lines))
        sets["wide"], paths["wide"] = sets["old"], str(tmp_path / "wide")
        pairs.append(("wide", "new"))
    for names in pairs:
        with BlockFile(paths[names[0]], fmt) as a, BlockFile(paths[names[1]], fmt) as b:
            streamed = drift(a, b)
        first, second = (sets[name] for name in names)
        in_memory = drift(first, second)
        assert tuple(streamed.entries) == tuple(in_memory.entries)
        assert streamed.quantiles == in_memory.quantiles
        entries, quantiles = reference_drift(first, second)
        assert [t for t, _, _ in streamed.entries] == [t for t, _, _ in entries]
        np.testing.assert_allclose([(c, s) for _, c, s in streamed.entries],
                                   [(c, s) for _, c, s in entries], rtol=0, atol=1e-12)
        for key, value in quantiles.items():
            assert streamed.quantiles[key] == pytest.approx(value, rel=0, abs=1e-12)
        assert streamed.only_before == tuple(t for t in first.words if t not in second)
        assert streamed.only_after == tuple(t for t in second.words if t not in first)
        assert [streamed.words[r] for r in streamed.rows.tolist()] == \
            [t for t, _, _ in entries]


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("row, of", [(2, 1), (BLOCK_ROWS + 40, 5),
                                     (BLOCK_ROWS + 40, BLOCK_ROWS + 5)])
def test_drift_of_a_repeated_token_fails_as_its_load(tmp_path, fmt, row, of):
    n = 2 * BLOCK_ROWS + 37
    before = random_embedding(np.random.default_rng(3), n, 4)
    words = list(before.words)
    words[row] = "DUP"
    _write(before, tmp_path / "good", fmt)
    # the good set reversed: its blocks differ from the bad set's from the
    # first on, so drift reads the bad set's repeat against rows it paired
    _write(EmbeddingSet(before.words[::-1], before.matrix[::-1]), tmp_path / "reversed", fmt)
    _write(EmbeddingSet(words, before.matrix), tmp_path / "bad", fmt)
    data = (tmp_path / "bad").read_bytes()
    (tmp_path / "bad").write_bytes(data.replace(b"DUP ", words[of].encode() + b" "))
    with pytest.raises(ValueError) as loaded:
        load_file(str(tmp_path / "bad"), fmt)
    at = (f"line {row + 2}" if fmt == "text" else
          f"byte {len(f'{n} 4 ') + sum(len(w) + 1 + 16 for w in words[:row])}")
    assert str(loaded.value) == f"{at}: duplicate token {words[of]!r}"
    for pair in (("bad", "good"), ("good", "bad"), ("bad", "reversed"), ("reversed", "bad")):
        with BlockFile(str(tmp_path / pair[0]), fmt) as a, \
                BlockFile(str(tmp_path / pair[1]), fmt) as b:
            with pytest.raises(type(loaded.value)) as streamed:
                drift(a, b)
        assert str(streamed.value) == str(loaded.value)
