"""The compiled text I/O fast paths against slow references.

``format_rows`` must write what Python's ``'%.9g' % value`` writes and
``parse_rows`` must read what ``float()`` reads, bit for bit, or decline.
A decline is allowed only where the exact fast path cannot decide: a
non-finite value, a magnitude beyond the exact powers of ten, a rounding
tie for the writer; a long significand, a large exponent or any other
syntax for the reader.
"""
from __future__ import annotations

import decimal
import io
import logging
import re

import numpy as np
import pytest

from classvec import _kernel, embedding_io
from classvec.embedding_io import (
    EmbeddingSet,
    load_text,
    parse_numerals,
    save_text,
)
from classvec.trainer import FinetuneConfig, finetune
from classvec.vocab import build_vocab, merge

from _constructions import (
    bit_random_embedding,
    disable_kernel,
    frequency_corpus,
    random_embedding,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

pytestmark = pytest.mark.usefixtures("kernel_library")

_EXACT = decimal.Context(prec=200)


def _formatter_may_decline(v: float) -> bool:
    """Whether '%.9g' % v is outside the exact fast path: non-finite, a
    decimal exponent outside [-14, 30] (10^(8-X) is then not an exact
    double), or a tenth significant digit within 1.1e-6 of a tie."""
    if not np.isfinite(v):
        return True
    if v == 0.0:
        return False
    if not 1e-15 <= abs(v) < 1e32:
        return True
    exact = abs(decimal.Decimal(v))
    x = exact.adjusted()
    if not -14 <= x <= 30:
        return True
    t = _EXACT.multiply(exact, decimal.Decimal(10) ** (8 - x))
    return abs(t - int(t) - decimal.Decimal("0.5")) <= decimal.Decimal("1.1e-6")


def _check_formatting(values: np.ndarray) -> list[str]:
    """Format each value as its own row; check every row against '%.9g',
    and every declined one against the rule. Returns the accepted texts."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    text, ends = _kernel.format_rows(values.reshape(-1, 1))
    accepted, begin = [], 0
    for v, end in zip(values.tolist(), ends):
        if end < 0:
            assert _formatter_may_decline(v), f"declined {v!r}"
            continue
        accepted.append(text[begin:end])
        assert accepted[-1] == "%.9g" % v
        begin = end
    assert begin == len(text)
    return accepted


def _parse(numerals: list[str]) -> np.ndarray | None:
    """parse_rows on one numeral per row."""
    data = "".join(f"{s}\n" for s in numerals).encode("ascii")
    return _kernel.parse_rows(data, len(numerals), 1)


def _assert_parses_like_float(numerals: list[str]) -> None:
    parsed = _parse(numerals)
    assert parsed is not None
    expected = np.array([float(s) for s in numerals])
    assert parsed[:, 0].tobytes() == expected.tobytes()


class TestFormatRows:
    def test_random_bit_patterns(self):
        """Subnormals, extremes and everything between; what comes out
        parses back bit for bit."""
        bits = np.random.default_rng(20).integers(0, 2**32, 1_100_000, dtype=np.uint64)
        values = bits.astype(np.uint32).view(np.float32)
        values = values[np.isfinite(values)]
        assert len(values) > 1_000_000
        assert (np.abs(values) < np.finfo(np.float32).tiny).sum() > 1000  # subnormals
        accepted = _check_formatting(values)
        assert len(accepted) > 0.5 * len(values)
        _assert_parses_like_float(accepted)

    def test_normal_values_across_magnitudes(self):
        rng = np.random.default_rng(21)
        scale = 10.0 ** rng.integers(-13, 30, 600_000)
        values = (rng.standard_normal(600_000) * scale).astype(np.float32)
        accepted = _check_formatting(values)
        # exact ties are common only among values of 1e5..1e7, whose
        # binary fractions end in 1/2, 1/4 or 1/8
        assert len(accepted) > 0.95 * len(values)
        _assert_parses_like_float(accepted)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([np.float32(f"1e{x}") for x in range(-45, 39)], dtype=np.float32)
        values = [powers, -powers]
        below, above = powers.copy(), powers.copy()
        for _ in range(3):
            below = np.nextafter(below, np.float32(0))
            above = np.nextafter(above, np.float32(np.inf))
            values += [below, above]
        _check_formatting(np.concatenate(values))

    @pytest.mark.parametrize("text, expected", [
        ("0.5", "0.5"),
        ("0.1", "0.100000001"),
        ("0.001", "0.00100000005"),         # X = -3: fixed notation
        ("1e-4", "9.99999975e-05"),         # X = -5: exponent notation
        ("1.1e-14", "1.10000001e-14"),      # X = -14, the smallest in reach
        ("1.5e-7", "1.50000005e-07"),
        ("16777216", "16777216"),
        ("123456789", "123456792"),
        ("999999936", "999999936"),         # X = 8: still fixed
        ("1e8", "100000000"),
        ("1e9", "1e+09"),                   # X = 9: exponent notation
        ("-2.5e30", "-2.49999996e+30"),
        ("-0", "-0"),
        ("0", "0"),
    ])
    def test_notation(self, text, expected):
        assert _check_formatting(np.array([text], dtype=np.float32)) == [expected]

    def test_rounding_carries_to_a_new_exponent(self):
        """A carry needs a float32 within 5e-10 (relative) below a power of
        ten. The only one is 9.999999998e-24, outside the exact powers of
        ten, so it is declined; below 1e-13 and 1e9 nothing carries."""
        carried = np.float32(9.999999998199587e-24)
        assert "%.9g" % carried == "1e-23"
        assert _kernel.format_rows(np.array([[carried]]))[1] == [-1]
        below = np.array([np.nextafter(np.float32(1e9), np.float32(0)),
                          np.float32(1e-13)], dtype=np.float32)
        assert _check_formatting(below) == ["999999936", "9.99999982e-14"]

    def test_declined_rows_come_back_as_minus_one(self):
        block = np.array([
            [0.5, -1.25],
            [1048576.125, 1.0],     # a tie: '1048576.12' by round-half-even
            [3.0, 1e-20],           # below the exact powers of ten
            [np.inf, 2.0],
            [-7.5, 1e35],           # above them
            [2.5, np.nan],
            [0.0, -0.0],
        ], dtype=np.float32)
        text, ends = _kernel.format_rows(block)
        assert ends[1:6] == [-1] * 5
        assert text == "0.5 -1.25" + "0 -0"
        assert ends == [9, -1, -1, -1, -1, -1, 13]

    def test_block_rows_equal_the_row_format(self):
        block = random_embedding(np.random.default_rng(22), 300, 7).matrix
        text, ends = _kernel.format_rows(block)
        row_format = " ".join(["%.9g"] * 7)
        rows = [row_format % tuple(r) for r in block.tolist()]
        assert text == "".join(rows)
        assert ends == np.cumsum([len(r) for r in rows]).tolist()

    def test_empty_block(self):
        assert _kernel.format_rows(np.empty((0, 4), dtype=np.float32)) == ("", [])


# what the parser must accept: the grammar, at most 15 significant digits,
# and a nonzero value's decimal exponent within +-22 once the significand
# has taken what it can of a larger one
_GRAMMAR = re.compile(r"([+-]?)([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")


def _parser_must_accept(s: str) -> bool:
    match = _GRAMMAR.fullmatch(s)
    if match is None or not (match[2] or match[3]):
        return False
    digits = (match[2] + (match[3] or "")).lstrip("0")
    if not digits:
        return True
    scale = int(match[4] or 0) - len(match[3] or "")
    if len(digits) > 15:
        return False
    # an exponent above 22 moves into the significand while it stays exact
    scale -= min(max(scale - 22, 0), 15 - len(digits))
    return -22 <= scale <= 22


class TestParseRows:
    @given(st.text("0123456789+-.eE", min_size=1, max_size=24))
    def test_numeral_alphabet(self, s):
        self._check(s)

    @given(st.from_regex(
        r"[+-]?[0-9]{0,18}(\.[0-9]{0,18})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
    ))
    def test_well_formed_numerals(self, s):
        self._check(s)

    @staticmethod
    def _check(s: str) -> None:
        parsed = _parse([s])
        if parsed is None:
            assert not _parser_must_accept(s)
            return
        assert _parser_must_accept(s)
        assert parsed[0, 0].tobytes() == np.float64(float(s)).tobytes()
        # never accept what the Python reader rejects
        reference = parse_numerals([s.encode()], 1)
        assert reference is not None and reference.tobytes() == parsed.tobytes()

    @pytest.mark.parametrize("s", [
        "0", "-0", "+0.000", "1.", ".5", "+1", "-.5e3", "1E5", "1e+05", "00012",
        "1e22", "1e-22", "123456789012345", "-0.123456789012345",
        "0.000000000000000000001", "1.5e22", "12e22", "0e999",
        "-0e-99999999999999999999", "900719925474099e-5", "1e23", "1e36",
        "4.0326604e+30", "12345678901234e23",
    ])
    def test_accepts(self, s):
        assert _parser_must_accept(s)
        _assert_parses_like_float([s])

    @pytest.mark.parametrize("s", [
        "1234567890123456", "-0.1234567890123456", "1.0000000000000000",
        "1234567890123450e-1", "1e37", "123456789012345e23", "1e-23", "1.5e-22", "1e99999999999999999999",
        "nan", "inf", "-Infinity", "1_0", "0x1", "", ".", "-", "e5", ".e1",
        "1e", "1e+", "--1", "1..2", "1.2.3", "1e5.5", "٣",
    ])
    def test_declines(self, s):
        assert not _parser_must_accept(s)
        assert _kernel.parse_rows(f"{s}\n".encode(), 1, 1) is None

    def test_rows(self):
        data = b"1 -2.5 3e-3\n+4 5. .6\n"
        parsed = _kernel.parse_rows(data, 2, 3)
        assert parsed.tolist() == [[1.0, -2.5, 3e-3], [4.0, 5.0, 0.6]]

    @pytest.mark.parametrize("data, n, m", [
        (b"1 2\n3\n", 2, 2),        # a short row
        (b"1 2\n3 4 5\n", 2, 2),    # a long row
        (b"1  2\n", 1, 2),          # an empty field
        (b" 1 2\n", 1, 2),
        (b"1 2 \n", 1, 2),
        (b"1 2", 1, 2),             # no final newline
        (b"1 2\r\n", 1, 2),
        (b"1 2\r", 1, 2),
        (b"1 2 3 4\n", 2, 2),      # one line is not two rows
        (b"1\t2\n", 1, 2),
        (b"1 2\n3 4\n", 1, 2),      # bytes after the last row
        (b"1 2\n", 2, 2),           # fewer rows than asked for
        (b"\n", 1, 1),
        (b"", 1, 1),
    ])
    def test_declines_malformed_rows(self, data, n, m):
        assert _kernel.parse_rows(data, n, m) is None

    def test_declines_a_block_from_its_first_bad_row(self, kernel_library):
        values = np.empty((3, 1))
        assert kernel_library.parse_rows(b"1\n2\nnan\n", 9, 3, 1, values.ctypes.data) == 2
        assert kernel_library.parse_rows(b"1\n1e99\n3\n", 10, 3, 1, values.ctypes.data) == 1
        assert kernel_library.parse_rows(b"1\n2\n3\n", 6, 3, 1, values.ctypes.data) == -1


def _hard_embedding() -> EmbeddingSet:
    """Random bit patterns with rows that hold values the writer declines
    and numerals the reader declines after the round trip."""
    emb = bit_random_embedding(np.random.default_rng(23), 600, 5)
    matrix = emb.matrix.copy()
    matrix[10, 2] = 1048576.125         # a formatting tie
    matrix[300, 0] = 1e-30              # '1.00000003e-30' parses beyond 1e-22
    matrix[599, 4] = 3e38
    return EmbeddingSet(emb.words, matrix)


def _save(emb: EmbeddingSet) -> bytes:
    buf = io.BytesIO()
    save_text(emb, buf)
    return buf.getvalue()


def test_unavailable_kernel_gives_the_same_text_io(monkeypatch, caplog):
    emb = _hard_embedding()
    data = _save(emb)
    loaded = load_text(io.BytesIO(data))
    assert loaded.matrix.tobytes() == emb.matrix.tobytes()
    unterminated = load_text(io.BytesIO(data[:-1]))
    assert unterminated.matrix.tobytes() == emb.matrix.tobytes()

    disable_kernel(monkeypatch)
    pretrained, corpus = frequency_corpus()
    with caplog.at_level(logging.INFO, logger="classvec"):
        assert _save(emb) == data
        assert load_text(io.BytesIO(data)).matrix.tobytes() == emb.matrix.tobytes()
        assert load_text(io.BytesIO(data[:-1])).matrix.tobytes() == emb.matrix.tobytes()
        finetune(merge(pretrained, build_vocab(corpus), seed=1), corpus,
                 FinetuneConfig(epochs=1))
    # one warning per process, however many callers find the library missing
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and "no C compiler" in warnings[0]


def test_written_files_load_through_the_kernel_alone(monkeypatch):
    """What save_text writes, with or without a final newline, never needs
    the Python parser."""
    def no_python_parser(rows, m):
        raise AssertionError("a block fell back to parse_numerals")

    monkeypatch.setattr(embedding_io, "parse_numerals", no_python_parser)
    emb = random_embedding(np.random.default_rng(25), 300, 4)
    data = _save(emb)
    for raw in (data, data[:-1]):
        assert load_text(io.BytesIO(raw)).matrix.tobytes() == emb.matrix.tobytes()


def test_declined_numerals_fall_back_for_the_whole_block():
    emb = random_embedding(np.random.default_rng(24), 40, 3)
    lines = _save(emb).split(b"\n")
    # line 21 holds row 20: a 17-digit significand and an exponent below -22
    lines[21] = lines[21].split(b" ")[0] + b" 1.00000000000000001 -2e-30 0.5"
    loaded = load_text(io.BytesIO(b"\n".join(lines)))
    assert loaded.matrix[20].tolist() == [1.0, np.float32(-2e-30), 0.5]
    others = np.delete(np.arange(40), 20)
    assert loaded.matrix[others].tobytes() == emb.matrix[others].tobytes()
