"""Unit tests for the word2vec text/binary readers and writers."""
from __future__ import annotations

import io
import tracemalloc
import warnings

import numpy as np
import pytest

from classvec import _kernel
from classvec.embedding_io import (
    BLOCK_ROWS,
    FORMATS,
    EmbeddingFormatError,
    EmbeddingSet,
    load_binary,
    load_file,
    load_text,
    save_binary,
    save_file,
    save_text,
)

from _constructions import (
    ShortReads,
    bit_random_embedding,
    disable_kernel,
    random_embedding,
    reference_load_binary,
    reference_load_text,
    reference_save_binary,
    reference_save_text,
)

# one row, both sides of a block boundary, and several blocks
BLOCK_SIZES = sorted({1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 1023, 1024, 1025, 2500})


def _round_trip_text(emb: EmbeddingSet) -> EmbeddingSet:
    buf = io.BytesIO()
    save_text(emb, buf)
    buf.seek(0)
    return load_text(buf)


def _round_trip_binary(emb: EmbeddingSet) -> EmbeddingSet:
    buf = io.BytesIO()
    save_binary(emb, buf)
    buf.seek(0)
    return load_binary(buf)


class TestEmbeddingSet:
    def test_basic_accessors(self):
        emb = EmbeddingSet(["a", "b"], np.arange(6, dtype=np.float32).reshape(2, 3))
        assert len(emb) == 2
        assert emb.dim == 3
        assert "a" in emb and "c" not in emb
        np.testing.assert_array_equal(emb.vector("b"), [3.0, 4.0, 5.0])
        with pytest.raises(KeyError):
            emb.vector("c")

    def test_matrix_is_read_only(self):
        emb = EmbeddingSet(["a"], np.ones((1, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            emb.matrix[0, 0] = 5.0

    def test_matrix_cast_to_float32(self):
        emb = EmbeddingSet(["a"], np.array([[1.0, 2.0]], dtype=np.float64))
        assert emb.matrix.dtype == np.float32

    @pytest.mark.parametrize(
        "words,matrix",
        [
            (["a", "a"], np.zeros((2, 2))),          # duplicate token
            (["a b"], np.zeros((1, 2))),             # whitespace in token
            ([""], np.zeros((1, 2))),                # empty token
            ([], np.zeros((0, 2))),                  # empty vocabulary
            (["a"], np.zeros((2, 2))),               # row count mismatch
            (["a"], np.zeros((1, 0))),               # zero dimensionality
            (["a"], np.array([[np.nan, 0.0]])),      # non-finite value
            (["a"], np.zeros(2)),                    # not 2-D
        ],
    )
    def test_rejects_invalid_input(self, words, matrix):
        with pytest.raises(ValueError):
            EmbeddingSet(words, matrix)

    @pytest.mark.parametrize(
        "bad,row,message",
        [
            ("w1", 5, "duplicate token at row 5"),
            ("a b", 3, "invalid token at row 3"),
            ("a\u00a0b", BLOCK_ROWS + 2, f"invalid token at row {BLOCK_ROWS + 2}"),
            ("", BLOCK_ROWS, f"invalid token at row {BLOCK_ROWS}"),
            ("w0", 2 * BLOCK_ROWS + 1, f"duplicate token at row {2 * BLOCK_ROWS + 1}"),
        ],
    )
    def test_token_errors_name_the_first_bad_row(self, bad, row, message):
        words = [f"w{i}" for i in range(2 * BLOCK_ROWS + 5)]
        words[row] = bad
        with pytest.raises(ValueError, match=message):
            EmbeddingSet(words, np.zeros((len(words), 2)))

    def test_non_finite_value_in_a_later_block(self):
        matrix = np.zeros((BLOCK_ROWS + 3, 2))
        matrix[BLOCK_ROWS + 1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSet([f"w{i}" for i in range(len(matrix))], matrix)


class TestTextFormat:
    def test_parse_simple_file(self):
        data = b"2 3\nking 1 2.5 -3\nqueen 0.125 -0 4e-2\n"
        emb = load_text(io.BytesIO(data))
        assert emb.words == ["king", "queen"]
        np.testing.assert_allclose(emb.vector("king"), [1.0, 2.5, -3.0])
        np.testing.assert_allclose(emb.vector("queen"), [0.125, -0.0, 0.04])

    def test_round_trip_is_bit_exact(self):
        # 9 significant digits reconstruct every finite float32 exactly,
        # including denormals, extremes and negative zero
        tricky = np.array(
            [
                [1.0, -0.0, np.float32(1e-45)],
                [np.float32(3.4e38), np.pi, -np.float32(1.1754944e-38)],
            ],
            dtype=np.float32,
        )
        emb = EmbeddingSet(["a", "élève"], tricky)
        back = _round_trip_text(emb)
        assert back.words == emb.words
        assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            bits = rng.integers(0, 2**32, size=(n, m), dtype=np.uint32)
            matrix = bits.view(np.float32)
            matrix[~np.isfinite(matrix)] = 0.0
            emb = EmbeddingSet([f"w{i}" for i in range(n)], matrix)
            back = _round_trip_text(emb)
            assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_header_errors(self):
        for data in (b"", b"abc\n", b"2\n", b"2 3 4\n", b"x 3\n", b"0 3\n", b"2 0\n"):
            with pytest.raises(EmbeddingFormatError):
                load_text(io.BytesIO(data))

    def test_row_count_mismatch(self):
        with pytest.raises(EmbeddingFormatError, match="declares 2"):
            load_text(io.BytesIO(b"2 2\na 1 2\n"))
        # a stray blank line counts as a (malformed) row
        with pytest.raises(EmbeddingFormatError):
            load_text(io.BytesIO(b"1 2\na 1 2\n\n"))

    def test_errors_carry_line_numbers(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_text(io.BytesIO(b"2 2\na 1 2\nb 1\n"))
        with pytest.raises(EmbeddingFormatError, match="line 2: malformed value"):
            load_text(io.BytesIO(b"1 2\na 1 x\n"))

    @pytest.mark.parametrize(
        "value", ["1_0", "1.0\t", "\u0663"], ids=["underscore", "tab", "arabic-indic"]
    )
    def test_rejects_what_float_takes_but_word2vec_does_not(self, value):
        data = f"1 2\na 1 {value}\n".encode()
        with pytest.raises(EmbeddingFormatError, match="line 2: malformed value"):
            load_text(io.BytesIO(data))

    @pytest.mark.parametrize(
        "header", ["1_0 2", "+1 2", "1 \u0663", "-1 2", "1 0x2"],
        ids=["underscore", "plus", "arabic-indic", "minus", "hex"],
    )
    def test_header_takes_ascii_digits_only(self, header):
        data = f"{header}\n".encode() + b"a 1 2\n" * 10
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_text(io.BytesIO(data))

    def test_header_larger_than_memory(self):
        with pytest.raises(EmbeddingFormatError, match="line 1: .* more than memory holds"):
            load_text(io.BytesIO(b"99999999999999999999 3\na 1 2 3\n"))
        with pytest.raises(EmbeddingFormatError, match="header: .* more than memory holds"):
            load_binary(io.BytesIO(b"3 99999999999999999999\na 1234"))

    @pytest.mark.parametrize(
        "token", ["a\tb", "a\u00a0b", "a\u2003b", "a\x1cb"],
        ids=["tab", "no-break-space", "em-space", "file-separator"],
    )
    def test_whitespace_inside_a_token(self, token):
        data = f"2 2\nok 1 2\n{token} 1 2\n".encode()
        with pytest.raises(EmbeddingFormatError, match="line 3: whitespace in token"):
            load_text(io.BytesIO(data))

    def test_numeral_check_skips_the_token(self):
        emb = load_text(io.BytesIO("1 2\nnaïve_ʃ 1 -2.5e-3\n".encode()))
        assert emb.words == ["naïve_ʃ"]

    def test_rejects_duplicate_and_empty_tokens(self):
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            load_text(io.BytesIO(b"2 1\na 1\na 2\n"))
        with pytest.raises(EmbeddingFormatError, match="empty token"):
            load_text(io.BytesIO(b"1 1\n 1\n"))

    def test_rejects_non_finite_values(self):
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_text(io.BytesIO(b"1 2\na nan 1\n"))
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_text(io.BytesIO(b"1 2\na 1 inf\n"))

    def test_rejects_invalid_utf8(self):
        with pytest.raises(EmbeddingFormatError, match="UTF-8"):
            load_text(io.BytesIO(b"1 1\n\xff\xfe 1\n"))
        with pytest.raises(EmbeddingFormatError, match="line 3: token is not valid UTF-8"):
            load_text(io.BytesIO(b"2 1\na 1\n\xc3 1\n"))

    @pytest.mark.parametrize("data", [b"1 1\na \n", b"1 1\na ", b"2 1\na \nb \n"])
    def test_empty_value_is_malformed_without_warnings(self, data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingFormatError, match="line 2: malformed value"):
                load_text(io.BytesIO(data))

    def test_rejects_control_bytes_that_float_strips(self):
        with pytest.raises(EmbeddingFormatError, match="line 2: malformed value"):
            load_text(io.BytesIO(b"1 2\na 1 2\x1c\n"))

    def test_row_count_outranks_a_bad_row(self):
        # a whole-file reader counts rows first; the block reader must agree
        with pytest.raises(EmbeddingFormatError, match="declares 2 rows but file has 3"):
            load_text(io.BytesIO(b"2 1\na x\nb 1\nc 1\n"))
        data = b"3 1\n" + b"".join(b"w%d 1\n" % i for i in range(BLOCK_ROWS + 5))
        with pytest.raises(EmbeddingFormatError, match=f"file has {BLOCK_ROWS + 5}"):
            load_text(io.BytesIO(data))

    def test_written_layout(self):
        emb = EmbeddingSet(["a", "b"], np.array([[1, 2], [3, 4]], np.float32))
        buf = io.BytesIO()
        save_text(emb, buf)
        assert buf.getvalue() == b"2 2\na 1 2\nb 3 4\n"


class TestBinaryFormat:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            emb = random_embedding(rng, int(rng.integers(1, 7)), int(rng.integers(1, 5)))
            back = _round_trip_binary(emb)
            assert back.words == emb.words
            assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_written_layout(self):
        emb = EmbeddingSet(["ab"], np.array([[1.0]], np.float32))
        buf = io.BytesIO()
        save_binary(emb, buf)
        assert buf.getvalue() == b"1 1\nab " + np.float32(1.0).tobytes()

    def test_truncation_errors_carry_byte_offsets(self):
        emb = EmbeddingSet(["abc", "de"], np.ones((2, 3), np.float32))
        buf = io.BytesIO()
        save_binary(emb, buf)
        data = buf.getvalue()
        # cut inside the second vector
        with pytest.raises(EmbeddingFormatError, match="byte .*mid-vector"):
            load_binary(io.BytesIO(data[:-4]))
        # cut inside the second token
        cut = len("2 3\nabc ") + 12 + 1
        with pytest.raises(EmbeddingFormatError, match="truncated stream inside token"):
            load_binary(io.BytesIO(data[:cut]))

    def test_trailing_data_is_an_error(self):
        emb = EmbeddingSet(["a"], np.ones((1, 2), np.float32))
        buf = io.BytesIO()
        save_binary(emb, buf)
        with pytest.raises(EmbeddingFormatError, match="trailing data"):
            load_binary(io.BytesIO(buf.getvalue() + b"x"))

    def test_header_must_end_with_newline(self):
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_binary(io.BytesIO(b"1 2"))

    def test_rejects_bad_tokens(self):
        vec = np.ones(2, np.float32).tobytes()
        with pytest.raises(EmbeddingFormatError, match="empty token"):
            load_binary(io.BytesIO(b"1 2\n " + vec))
        with pytest.raises(EmbeddingFormatError, match="newline"):
            load_binary(io.BytesIO(b"1 2\na\nb " + vec))
        with pytest.raises(EmbeddingFormatError, match="duplicate"):
            load_binary(io.BytesIO(b"2 2\na " + vec + b"a " + vec))
        with pytest.raises(EmbeddingFormatError, match="UTF-8"):
            load_binary(io.BytesIO(b"1 2\n\xff\xfe " + vec))

    def test_rejects_non_finite_values(self):
        bad = np.array([np.inf, 1.0], np.float32).tobytes()
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_binary(io.BytesIO(b"1 2\na " + bad))

    @pytest.mark.parametrize("header", [b"1_0 2", b"+1 2", "1 \u0663".encode(), b"-1 2"])
    def test_header_takes_ascii_digits_only(self, header):
        vec = np.ones(2, np.float32).tobytes()
        data = header + b"\n" + b"".join(b"w%d " % i + vec for i in range(10))
        with pytest.raises(EmbeddingFormatError, match="header: non-integer"):
            load_binary(io.BytesIO(data))

    def test_whitespace_inside_a_token(self):
        vec = np.ones(2, np.float32).tobytes()
        with pytest.raises(EmbeddingFormatError, match="byte 4: whitespace in token"):
            load_binary(io.BytesIO(b"1 2\na\tb " + vec))


class TestFileHelpers:
    def test_save_and_load_both_formats(self, tmp_path):
        rng = np.random.default_rng(5)
        emb = random_embedding(rng, 4, 3)
        for fmt in FORMATS:
            path = str(tmp_path / f"vectors.{fmt}")
            save_file(emb, path, fmt)
            back = load_file(path, fmt)
            assert back.words == emb.words
            assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        emb = EmbeddingSet(["a"], np.ones((1, 1), np.float32))
        with pytest.raises(ValueError, match="unknown embedding format"):
            save_file(emb, str(tmp_path / "x"), "json")
        with pytest.raises(ValueError, match="unknown embedding format"):
            load_file(str(tmp_path / "x"), "json")

    def test_text_file_not_parseable_as_binary_by_accident(self, tmp_path):
        # formats are never sniffed: loading with the wrong name must fail
        # loudly rather than return garbage for this minimal file
        emb = EmbeddingSet(["a"], np.ones((1, 3), np.float32))
        path = str(tmp_path / "v.txt")
        save_file(emb, path, "text")
        with pytest.raises(EmbeddingFormatError):
            load_file(path, "bin")


class TestBlockReadersMatchReferences:
    """The block readers and writers against row-at-a-time references."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_text(self, n):
        emb = bit_random_embedding(np.random.default_rng(n), n, 3)
        buf = io.BytesIO()
        save_text(emb, buf)
        data = buf.getvalue()
        assert data == reference_save_text(emb)
        fast, ref = load_text(io.BytesIO(data)), reference_load_text(data)
        assert fast.words == ref.words == emb.words
        assert fast.matrix.tobytes() == ref.matrix.tobytes() == emb.matrix.tobytes()

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_binary(self, n):
        emb = bit_random_embedding(np.random.default_rng(n), n, 3)
        buf = io.BytesIO()
        save_binary(emb, buf)
        data = buf.getvalue()
        assert data == reference_save_binary(emb)
        fast, ref = load_binary(io.BytesIO(data)), reference_load_binary(data)
        assert fast.words == ref.words == emb.words
        assert fast.matrix.tobytes() == ref.matrix.tobytes() == emb.matrix.tobytes()

    def test_values_parse_like_float(self):
        # numerals a writer with another precision or style would emit
        rng = np.random.default_rng(8)
        exponents = rng.integers(-46, 38, 3 * 2500)
        values = (rng.standard_normal(3 * 2500) * 10.0 ** exponents).tolist()
        styles = ("%.17g", "%.6e", "%.3f", "%r", "%.9G", "%+.12g")
        rows = [
            f"w{i} " + " ".join(styles[(i + j) % len(styles)] % values[3 * i + j]
                                for j in range(3))
            for i in range(2500)
        ]
        data = ("2500 3\n" + "\n".join(rows) + "\n").encode()
        assert load_text(io.BytesIO(data)).matrix.tobytes() == \
            reference_load_text(data).matrix.tobytes()


def _text_rows(n: int) -> list[bytes]:
    return [b"w%d 0.5 -1.25e-3" % i for i in range(n)]


def _text_file(rows: list[bytes]) -> bytes:
    return b"%d 2\n" % len(rows) + b"\n".join(rows) + b"\n"


@pytest.mark.parametrize(
    "row", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 7, 2 * BLOCK_ROWS + 3],
)
@pytest.mark.parametrize(
    "fault,message",
    [
        (b"w{i} 0.5 x", "malformed value"),
        (b"w{i} 0.5 1e39", "non-finite value"),
        (b"w{i} 0.5", "expected 3 space-separated fields, got 2"),
        (b"w{prev} 0.5 1", "duplicate token 'w{prev}'"),
        (b" 0.5 1", "empty token"),
        (b"w{i}\t 0.5 1", "whitespace in token"),
        (b"w{i}\xff 0.5 1", "token is not valid UTF-8"),
    ],
    ids=["value", "non-finite", "fields", "duplicate", "empty", "whitespace", "utf8"],
)
def test_text_errors_name_their_own_line(row, fault, message):
    rows = _text_rows(2 * BLOCK_ROWS + 10)
    rows[row] = fault.replace(b"{i}", b"%d" % row).replace(b"{prev}", b"%d" % (row - 1))
    rows[-1] = b"last 1 x"  # a later error must not be the one reported
    data = _text_file(rows)
    message = message.replace("{prev}", str(row - 1))
    with pytest.raises(EmbeddingFormatError) as err:
        load_text(io.BytesIO(data))
    assert str(err.value).startswith(f"line {row + 2}: {message}")
    with pytest.raises(EmbeddingFormatError) as ref:
        reference_load_text(data)
    assert str(err.value) == str(ref.value)


def test_binary_non_finite_row_reports_its_own_offset():
    n, m = 2 * BLOCK_ROWS + 10, 2
    emb = random_embedding(np.random.default_rng(4), n, m)
    buf = io.BytesIO()
    save_binary(emb, buf)
    data = bytearray(buf.getvalue())
    bad = BLOCK_ROWS + 7
    offset = len(b"%d %d\n" % (n, m)) + sum(len(w.encode()) + 1 + 4 * m for w in emb.words[:bad])
    offset += len(emb.words[bad]) + 1  # the vector starts after "<token> "
    data[offset + 4:offset + 8] = np.float32(np.nan).tobytes()
    data[-4:] = np.float32(np.inf).tobytes()  # a later error must not be the one reported
    with pytest.raises(EmbeddingFormatError) as err:
        load_binary(io.BytesIO(bytes(data)))
    assert str(err.value) == f"byte {offset}: non-finite value"
    with pytest.raises(EmbeddingFormatError) as ref:
        reference_load_binary(bytes(data))
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("cut", [1, 5, 9])
@pytest.mark.parametrize("row", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 7])
def test_binary_truncation_matches_reference(row, cut):
    emb = random_embedding(np.random.default_rng(5), 2 * BLOCK_ROWS, 2)
    buf = io.BytesIO()
    save_binary(emb, buf)
    data = buf.getvalue()
    end = len(b"%d 2\n" % len(emb)) + sum(len(w) + 1 + 8 for w in emb.words[:row])
    data = data[:end + cut]
    with pytest.raises(EmbeddingFormatError) as err:
        load_binary(io.BytesIO(data))
    with pytest.raises(EmbeddingFormatError) as ref:
        reference_load_binary(data)
    assert str(err.value) == str(ref.value)


# --- chunk boundaries ---------------------------------------------------------
#
# Each reader takes its input in chunks of about BLOCK_ROWS rows (text:
# whole lines, binary: raw bytes) and scans each chunk in one kernel call.
# Rows that cross a chunk's end, rows the scanner declines and the Python
# block code after them must give what the row-by-row references give.

def _text_chunk(m: int) -> int:
    """The bytes a text load reads at a time at dimension m."""
    return BLOCK_ROWS * (_kernel.FORMAT_BYTES * m + 16)


def _binary_chunk(m: int) -> int:
    """The bytes a binary load reads at a time at dimension m."""
    return BLOCK_ROWS * (4 * m + 16)


@pytest.fixture(params=["kernel", "no_kernel"])
def kernel_or_not(request, monkeypatch):
    """Run once with the compiled scanners and once with the Python code."""
    if request.param == "no_kernel":
        disable_kernel(monkeypatch)


def _outcome(load, data: bytes, step: int | None = None):
    """(words, matrix bytes) of a load, or its error message."""
    source = io.BytesIO(data) if step is None else ShortReads(data, step)
    try:
        emb = load(source)
    except EmbeddingFormatError as e:
        return str(e)
    return emb.words, emb.matrix.tobytes()


def _assert_text_like_reference(data: bytes, steps=(None, 7)) -> None:
    expected = _outcome(lambda source: reference_load_text(source.read()), data)
    for step in steps:
        assert _outcome(load_text, data, step) == expected


def _assert_binary_like_reference(data: bytes, steps=(None, 5)) -> None:
    expected = _outcome(lambda source: reference_load_binary(source.read()), data)
    for step in steps:
        assert _outcome(load_binary, data, step) == expected


def _text_data(n: int, m: int, seed: int) -> bytes:
    buf = io.BytesIO()
    save_text(random_embedding(np.random.default_rng(seed), n, m), buf)
    return buf.getvalue()


@pytest.mark.usefixtures("kernel_or_not")
class TestChunkBoundaries:
    def test_text_rows_straddle_chunk_edges(self):
        data = _text_data(4 * BLOCK_ROWS, 2, 30)
        # the first read ends inside a row; the reader completes its line
        edge = data.index(b"\n") + 1 + _text_chunk(2)
        assert edge < len(data) - _text_chunk(2) and data[edge - 1] != ord("\n")
        _assert_text_like_reference(data, steps=(None, 1, 7, 4096))
        assert isinstance(_outcome(load_text, data), tuple)

    def test_text_last_row_without_its_newline(self):
        data = _text_data(BLOCK_ROWS + 3, 2, 31)
        assert data.endswith(b"\n")
        _assert_text_like_reference(data[:-1])
        assert _outcome(load_text, data[:-1]) == _outcome(load_text, data)

    def test_text_declined_numeral_mid_chunk(self):
        data = _text_data(2 * BLOCK_ROWS, 3, 32)
        lines = data.split(b"\n")
        row = 100  # on line row + 2, with accepted rows after it in its chunk
        token = lines[row + 1].split(b" ")[0]
        lines[row + 1] = token + b" %.17g 0.5 %.17g" % (0.1, -2.5e-30)
        data = b"\n".join(lines)
        _assert_text_like_reference(data)
        words, matrix = _outcome(load_text, data)
        values = np.frombuffer(matrix, dtype=np.float32).reshape(-1, 3)
        assert values[row].tolist() == np.array([0.1, 0.5, -2.5e-30], np.float32).tolist()

    @pytest.mark.parametrize("where", ["every", "one"])
    def test_text_crlf_line_endings(self, where):
        data = _text_data(2 * BLOCK_ROWS, 2, 33)
        if where == "every":
            data = data.replace(b"\n", b"\r\n")
        else:
            at = data.index(b"\n", len(data) // 2)
            data = data[:at] + b"\r" + data[at:]
        message = _outcome(load_text, data)
        assert isinstance(message, str) and message.endswith("malformed value")
        _assert_text_like_reference(data)

    def test_binary_token_split_across_chunks(self):
        m = 2
        rows = [(b"t%d" % i, [float(i), -0.5]) for i in range(3 * BLOCK_ROWS)]
        header = b"%d %d\n" % (len(rows), m)
        # lengthen one token until the first chunk edge falls inside it
        edge = len(header) + _binary_chunk(m)
        offset = len(header)
        for i, (token, _) in enumerate(rows):
            if offset + len(token) + 1 > edge - 3:
                rows[i] = (b"x" * (edge - offset + 3), rows[i][1])
                break
            offset += len(token) + 1 + 4 * m
        emb = EmbeddingSet([t.decode() for t, _ in rows],
                           np.array([v for _, v in rows], dtype=np.float32))
        buf = io.BytesIO()
        save_binary(emb, buf)
        data = buf.getvalue()
        token_at = data.index(b" ", offset)
        assert offset < edge < token_at  # the edge is inside the token
        _assert_binary_like_reference(data, steps=(None, 1, 5, 4096))
        assert _outcome(load_binary, data) == (emb.words, emb.matrix.tobytes())

    def test_binary_vectors_straddle_chunk_edges(self):
        emb = random_embedding(np.random.default_rng(34), 3 * BLOCK_ROWS, 3)
        buf = io.BytesIO()
        save_binary(emb, buf)
        _assert_binary_like_reference(buf.getvalue(), steps=(None, 1, 5, 4096))

    @pytest.mark.parametrize("row", [3, BLOCK_ROWS + 3])
    def test_binary_truncated_mid_vector(self, row):
        emb = random_embedding(np.random.default_rng(35), 2 * BLOCK_ROWS, 2)
        buf = io.BytesIO()
        save_binary(emb, buf)
        data = buf.getvalue()
        start = len(b"%d 2\n" % len(emb)) + sum(len(w) + 1 + 8 for w in emb.words[:row])
        data = data[:start + len(emb.words[row]) + 1 + 5]
        message = _outcome(load_binary, data)
        assert isinstance(message, str) and "truncated stream mid-vector" in message
        _assert_binary_like_reference(data)


def test_text_load_streams_in_bounded_memory():
    """Peak allocation is the matrix plus a quarter of the file: the reader
    holds one block of lines at a time, never the whole file."""
    n, m = 12000, 100
    emb = random_embedding(np.random.default_rng(6), n, m)
    buf = io.BytesIO()
    save_text(emb, buf)
    data = buf.getvalue()
    load_text(io.BytesIO(b"1 2\na 1 2\n"))  # first-call imports are not the reader's
    tracemalloc.start()
    try:
        loaded = load_text(io.BytesIO(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.matrix.tobytes() == emb.matrix.tobytes()
    assert peak <= emb.matrix.nbytes + len(data) / 4, (peak, len(data))


def test_binary_load_streams_in_bounded_memory():
    """Beyond what the loaded set keeps, a load allocates at most a quarter
    of the file at its peak: the reader holds about one block of the stream
    at a time, never the whole file. (The kept words and index are measured
    rather than bounded: a binary file is dense, so they alone come to a
    third of it at dim 100.)"""
    n, m = 12000, 100
    emb = random_embedding(np.random.default_rng(7), n, m)
    buf = io.BytesIO()
    save_binary(emb, buf)
    data = buf.getvalue()
    load_binary(io.BytesIO(b"1 1\na \x00\x00\x80\x3f"))  # first-call imports
    tracemalloc.start()
    try:
        loaded = load_binary(io.BytesIO(data))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.matrix.tobytes() == emb.matrix.tobytes()
    assert kept >= emb.matrix.nbytes
    assert peak - kept <= len(data) / 4, (peak, kept, len(data))
