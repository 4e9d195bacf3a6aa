"""The compiled I/O fast paths against slow references.

``format_rows`` must write what Python's ``'%.9g' % value`` writes and
``scan_text`` must read what ``np.float32(float(text))`` reads, bit for
bit, or decline. A decline is allowed only where the exact fast path
cannot decide: a non-finite value, a magnitude beyond the exact powers of
ten, a rounding tie for the writer; a long significand, a large exponent
or any other syntax for the reader. ``scan_binary`` must copy every
finite vector and decline the rest.
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
    EmbeddingFormatError,
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


def _scan(numerals: list[str]) -> np.ndarray | None:
    """scan_text on one row per numeral; None if it declines any of them."""
    lines = [f"w {s}\n".encode() for s in numerals]
    out = np.empty((len(numerals), 1), dtype=np.float32)
    rows, end, tokens, declined = _kernel.scan_text(b"".join(lines), 0, out)
    # a scan stops at the start of the first row it declines, or after the last
    assert end == sum(len(line) for line in lines[:rows])
    assert tokens == b" ".join([b"w"] * rows)
    assert declined == (rows < len(numerals))
    return out if rows == len(numerals) else None


def _float32(numerals: list[str]) -> np.ndarray:
    """np.float32(float(s)) of each numeral, the reader's reference."""
    return np.array([float(s) for s in numerals]).astype(np.float32)


def _assert_parses_like_float(numerals: list[str]) -> None:
    parsed = _scan(numerals)
    assert parsed is not None
    assert parsed[:, 0].tobytes() == _float32(numerals).tobytes()


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
    """``scan_text``: its numerals against ``float()``, then its rows."""

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
        # alone, a numeral's last digits are read one at a time, as fewer
        # than eight bytes are left; with rows after it, eight at a time
        for numerals in ([s], [s, "0", "0"]):
            parsed = _scan(numerals)
            if parsed is None:
                assert not _parser_must_accept(s)
                continue
            assert _parser_must_accept(s)
            assert parsed[0, 0].tobytes() == _float32([s]).tobytes()
            # never accept what the Python reader rejects
            reference = parse_numerals([s.encode()], 1)
            assert reference is not None
            assert reference.astype(np.float32).tobytes() == parsed[0, 0].tobytes()

    @pytest.mark.parametrize("s", [
        "0", "-0", "+0.000", "1.", ".5", "+1", "-.5e3", "1E5", "1e+05", "00012",
        "1e22", "1e-22", "123456789012345", "-0.123456789012345",
        "0.000000000000000000001", "1.5e22", "12e22", "0e999",
        "-0e-99999999999999999999", "900719925474099e-5", "1e23", "1e36",
        "4.0326604e+30", "12345678901234e23", "0.000000000000000123",
    ])
    def test_accepts(self, s):
        assert _parser_must_accept(s)
        _assert_parses_like_float([s])
        self._check(s)

    @pytest.mark.parametrize("s", [
        "1234567890123456", "-0.1234567890123456", "1.0000000000000000",
        "1234567890123450e-1", "1e37", "123456789012345e23", "1e-23", "1.5e-22", "1e99999999999999999999",
        "nan", "inf", "-Infinity", "1_0", "0x1", "", ".", "-", "e5", ".e1",
        "1e", "1e+", "--1", "1..2", "1.2.3", "1e5.5", "٣", "1.0000000000000001",
        "3.5e38",
    ])
    def test_declines(self, s):
        assert not _parser_must_accept(s)
        assert _scan([s]) is None
        assert _scan([s, "0", "0"]) is None

    @pytest.mark.parametrize("digits", [7, 8, 9, 15, 16])
    def test_fraction_digits(self, digits):
        """Runs shorter than, as long as and longer than one eight-digit
        step, up to the 15 significant digits the fast path takes."""
        fraction = "918273645546372819"[:digits]
        for s in (f"0.{fraction}", f"-0.{fraction}", f"0.000{fraction}", f"4.{fraction}"):
            significant = digits + s.startswith("4")
            assert _parser_must_accept(s) == (significant <= 15)
            self._check(s)

    def test_signed_zero(self):
        parsed = _scan(["-0", "0", "-0.000e5"])
        assert parsed[:, 0].tobytes() == np.array([-0.0, 0.0, -0.0], np.float32).tobytes()

    def test_rows(self):
        data = b"a 1 -2.5 3e-3\nb +4 5. .6\n"
        out = np.empty((2, 3), dtype=np.float32)
        assert _kernel.scan_text(data, 0, out) == (2, len(data), b"a b", False)
        assert out.tolist() == np.array([[1.0, -2.5, 3e-3], [4.0, 5.0, 0.6]],
                                        dtype=np.float32).tolist()
        # from an offset, into fewer rows than the data holds
        assert _kernel.scan_text(data, 14, out[:1]) == (1, len(data), b"b", False)

    # each row of the data below is given a token ("w ") before the scan
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
        """The scan never takes all n rows up to the end of such data. It
        stops at a malformed row that ends in a newline as declined, and
        at a row without one, or after n rows, as not declined."""
        pieces = data.split(b"\n")
        pieces = [b"w " + p if p or i < len(pieces) - 1 else p
                  for i, p in enumerate(pieces)]
        data = b"\n".join(pieces)
        out = np.zeros((n, m), dtype=np.float32)
        rows, end, tokens, declined = _kernel.scan_text(data, 0, out)
        assert not (rows == n and end == len(data))
        assert end == sum(len(p) + 1 for p in pieces[:rows])
        assert tokens == b" ".join([b"w"] * rows)
        bad = data[end:].partition(b"\n")
        assert declined == (rows < n and bad[1] == b"\n")

    def test_declines_a_block_from_its_first_bad_row(self):
        out = np.empty((3, 1), dtype=np.float32)
        assert _kernel.scan_text(b"a 1\nb 2\nc nan\n", 0, out) == (2, 8, b"a b", True)
        assert _kernel.scan_text(b"a 1\nb 1e99\nc 3\n", 0, out) == (1, 4, b"a", True)
        # a token that ends its line
        assert _kernel.scan_text(b"a 1\nb\nc 3\n", 0, out) == (1, 4, b"a", True)
        assert _kernel.scan_text(b"a 1\nb 2\nc 3\n", 0, out) == (3, 12, b"a b c", False)


def _binary_rows(rows: list[tuple[bytes, list[float]]]) -> bytes:
    return b"".join(t + b" " + np.array(v, dtype="<f4").tobytes() for t, v in rows)


class TestScanBinary:
    def test_rows(self):
        data = _binary_rows([(b"ab", [1.5, -2.0]), ("é".encode(), [0.0, 3e38])])
        out = np.empty((2, 2), dtype=np.float32)
        assert _kernel.scan_binary(data, 0, out) == (2, len(data), "ab é".encode(), False)
        assert out.tolist() == np.array([[1.5, -2.0], [0.0, 3e38]], np.float32).tolist()

    def test_a_cut_row_is_left_for_more_data(self):
        data = _binary_rows([(b"ab", [1.5, -2.0]), (b"cd\n", [4.0, 5.0])])
        out = np.empty((2, 2), dtype=np.float32)
        for cut in range(len(data) + 1):
            rows = (cut >= 11) + (cut == len(data))
            assert _kernel.scan_binary(data[:cut], 0, out) == (
                rows, 11 * (rows > 0) + 12 * (rows > 1),
                b" ".join([b"ab", b"cd\n"][:rows]), False,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_declines_a_non_finite_row(self, bad):
        data = _binary_rows([(b"a", [1.0]), (b"b", [bad]), (b"c", [2.0])])
        out = np.empty((3, 1), dtype=np.float32)
        assert _kernel.scan_binary(data, 0, out) == (1, 6, b"a", True)
        assert _kernel.scan_binary(data, 6, out) == (0, 6, b"", True)
        assert _kernel.scan_binary(data, 12, out) == (1, 18, b"c", False)


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


def test_a_value_beyond_float32_is_named_by_the_python_reader():
    """3.5e38 parses as a double but overflows float32: the scanner
    declines its row and the Python block names it."""
    data = b"3 2\na 1 2\nb 3.5e38 1\nc 1 2\n"
    with pytest.raises(EmbeddingFormatError) as err:
        load_text(io.BytesIO(data))
    assert str(err.value) == "line 3: non-finite value"
