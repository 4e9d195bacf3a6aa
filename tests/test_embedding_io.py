"""Unit tests for the word2vec text/binary readers and writers."""
from __future__ import annotations

import io
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from classvec import _kernel, embedding_io
from classvec.embedding_io import (
    BLOCK_ROWS,
    FORMATS,
    BlockFile,
    EmbeddingChangedError,
    EmbeddingFormatError,
    EmbeddingSet,
    load_binary,
    load_file,
    load_rows,
    load_text,
    save_binary,
    save_text,
)

from _constructions import (
    ShortReads,
    assert_streams_as_it_loads,
    bit_random_embedding,
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

    @pytest.mark.parametrize("row", [0, BLOCK_ROWS + 2])
    @pytest.mark.parametrize("bad", ["\ud800", "ok\udcff"])
    def test_rejects_a_token_no_writer_can_encode(self, bad, row):
        # a lone surrogate is a str, but no UTF-8 file can hold it: the set
        # refuses it, so no writer fails part way through its file
        words = [f"w{i}" for i in range(2 * BLOCK_ROWS + 5)]
        words[row] = bad
        message = f"token at row {row} does not encode as UTF-8: {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=f"^{message}$"):
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
            with open(path, "wb") as f:
                (save_text if fmt == "text" else save_binary)(emb, f)
            back = load_file(path, fmt)
            assert back.words == emb.words
            assert back.matrix.tobytes() == emb.matrix.tobytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown embedding format"):
            load_file(str(tmp_path / "x"), "json")

    def test_text_file_not_parseable_as_binary_by_accident(self, tmp_path):
        # formats are never sniffed: loading with the wrong name must fail
        # loudly rather than return garbage for this minimal file
        emb = EmbeddingSet(["a"], np.ones((1, 3), np.float32))
        path = str(tmp_path / "v.txt")
        with open(path, "wb") as f:
            save_text(emb, f)
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
# The reader tops its input up to a chunk of raw bytes with room for
# BLOCK_ROWS rows and scans each block in one kernel call.
# Rows that cross a chunk's end, rows the scanner declines and the Python
# block code after them must give what the row-by-row references give.

def _text_chunk(m: int) -> int:
    """The bytes a text load reads at a time at dimension m."""
    return BLOCK_ROWS * (_kernel.FORMAT_BYTES * m + 16)


def _binary_chunk(m: int) -> int:
    """The bytes a binary load reads at a time at dimension m."""
    return BLOCK_ROWS * (4 * m + 16)


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
        # the first read ends inside a row; a later read completes it
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

    def test_binary_vector_runs_past_the_first_chunk(self, tmp_path):
        # 41-byte rows at m = 4: the first chunk ends 33 bytes into row 199,
        # inside its vector, which the block reads on from the stream
        m, n = 4, 2 * BLOCK_ROWS
        emb = random_embedding(np.random.default_rng(36), n, m)
        emb = EmbeddingSet([f"w{i:023d}" for i in range(n)], emb.matrix)
        data = _saved(save_binary, emb)
        assert divmod(_binary_chunk(m), 24 + 1 + 4 * m) == (199, 33)
        _assert_binary_like_reference(data, steps=(None, 1, 4096))
        expected = reference_load_binary(data)
        path = tmp_path / "v.bin"
        path.write_bytes(data)
        with BlockFile(str(path), "bin") as source:
            blocks = [(tokens, rows.copy()) for tokens, rows in source.blocks()]
        assert sum((t for t, _ in blocks), []) == expected.words
        assert np.concatenate([r for _, r in blocks]).tobytes() == expected.matrix.tobytes()

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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("m", [2, 100])
@pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 6000])
def test_every_scan_but_the_last_takes_a_full_block(
    n, m, fmt, tmp_path, kernel_library, monkeypatch
):
    """A written file with tokens of up to 15 bytes is read, by a load and
    by a stream, in ceil(n / BLOCK_ROWS) scans, each of BLOCK_ROWS rows
    but the last."""
    rng = np.random.default_rng(41)
    words = [f"t{i:014d}" for i in range(n)]  # 15 bytes each
    # +-[1, 10) x 1e-14 prints as the widest '%.9g' numerals the kernel
    # parses, such as -1.23456789e-14 (its fast path takes 10^-22 at most)
    signs = rng.choice([-1.0, 1.0], (n, m))
    matrix = (signs * rng.uniform(1, 10, (n, m)) * 1e-14).astype(np.float32)
    path = str(tmp_path / "vectors")
    with open(path, "wb") as f:
        (save_text if fmt == "text" else save_binary)(EmbeddingSet(words, matrix), f)
    scanned = []
    scan = _kernel._scan

    def counted(*args):
        scanned.append(scan(*args))
        return scanned[-1]

    monkeypatch.setattr(_kernel, "_scan", counted)
    full = [BLOCK_ROWS] * (n // BLOCK_ROWS) + [n % BLOCK_ROWS] * (n % BLOCK_ROWS > 0)
    assert load_file(path, fmt).matrix.tobytes() == matrix.tobytes()
    assert [rows for rows, *_ in scanned] == full
    scanned.clear()
    with BlockFile(path, fmt) as stream:
        assert [len(tokens) for tokens, _ in stream.blocks()] == full
    assert [rows for rows, *_ in scanned] == full


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_row_longer_than_a_chunk_takes_few_scans(fmt, kernel_library, monkeypatch):
    """Each scan that stops inside a row reads as much again as the reader
    holds, so a row of 1 MB, read 4096 bytes at a time, takes a dozen
    scans, not one per read."""
    emb = EmbeddingSet(["x" * 2**20, "y"], np.array([[1, 2], [3, 4]], np.float32))
    buf = io.BytesIO()
    (save_text if fmt == "text" else save_binary)(emb, buf)
    calls = []
    scan = _kernel._scan
    monkeypatch.setattr(_kernel, "_scan", lambda *args: calls.append(1) or scan(*args))
    load = load_text if fmt == "text" else load_binary
    assert load(ShortReads(buf.getvalue(), 4096)).words == emb.words
    assert len(calls) <= 12


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


# --- a file read as a stream of blocks ----------------------------------------

def _saved(save, emb: EmbeddingSet) -> bytes:
    buf = io.BytesIO()
    save(emb, buf)
    return buf.getvalue()


def _malformed_files() -> list[tuple[str, bytes]]:
    """(format, file) for the malformed inputs the tests above load."""
    text = [
        b"", b"abc\n", b"2\n", b"2 3 4\n", b"x 3\n", b"0 3\n", b"2 0\n",
        b"2 2\na 1 2\n", b"1 2\na 1 2\n\n", b"2 2\na 1 2\nb 1\n", b"1 2\na 1 x\n",
        *(f"1 2\na 1 {v}\n".encode() for v in ("1_0", "1.0\t", "\u0663")),
        *(f"{h}\n".encode() + b"a 1 2\n" * 10
          for h in ("1_0 2", "+1 2", "1 \u0663", "-1 2", "1 0x2")),
        b"99999999999999999999 3\na 1 2 3\n",
        *(f"2 2\nok 1 2\n{t} 1 2\n".encode() for t in ("a\tb", "a\u00a0b", "a\u2003b", "a\x1cb")),
        b"2 1\na 1\na 2\n", b"1 1\n 1\n", b"1 2\na nan 1\n", b"1 2\na 1 inf\n",
        b"1 1\n\xff\xfe 1\n", b"2 1\na 1\n\xc3 1\n", b"1 1\na \n", b"1 1\na ",
        b"2 1\na \nb \n", b"1 2\na 1 2\x1c\n", b"2 1\na x\nb 1\nc 1\n",
        b"3 1\n" + b"".join(b"w%d 1\n" % i for i in range(BLOCK_ROWS + 5)),
        _text_data(2 * BLOCK_ROWS, 2, 33).replace(b"\n", b"\r\n"),
    ]
    for row in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 7, 2 * BLOCK_ROWS + 3):
        for fault in (b"w{i} 0.5 x", b"w{i} 0.5 1e39", b"w{i} 0.5", b"w{prev} 0.5 1",
                      b" 0.5 1", b"w{i}\t 0.5 1", b"w{i}\xff 0.5 1"):
            rows = _text_rows(2 * BLOCK_ROWS + 10)
            rows[row] = fault.replace(b"{i}", b"%d" % row).replace(b"{prev}", b"%d" % (row - 1))
            rows[-1] = b"last 1 x"
            text.append(_text_file(rows))

    vec = np.ones(2, np.float32).tobytes()
    two = _saved(save_binary, EmbeddingSet(["abc", "de"], np.ones((2, 3), np.float32)))
    binary = [
        b"1 2", b"3 99999999999999999999\na 1234", two[:-4], two[:len(b"2 3\nabc ") + 13],
        _saved(save_binary, EmbeddingSet(["a"], np.ones((1, 2), np.float32))) + b"x",
        b"1 2\n " + vec, b"1 2\na\nb " + vec, b"2 2\na " + vec + b"a " + vec,
        b"1 2\n\xff\xfe " + vec, b"1 2\na " + np.array([np.inf, 1], np.float32).tobytes(),
        *(h + b"\n" + b"".join(b"w%d " % i + vec for i in range(10))
          for h in (b"1_0 2", b"+1 2", "1 \u0663".encode(), b"-1 2")),
        b"1 2\na\tb " + vec,
    ]
    n = 2 * BLOCK_ROWS + 10
    for row in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 7):
        words = [b"w%d" % i for i in range(n)]
        words[row] = b"w%d" % (row - 1)  # a repeat, within a block or across two
        binary.append(b"%d 2\n" % n + b"".join(w + b" " + vec for w in words))
        data = bytearray(_saved(save_binary, random_embedding(np.random.default_rng(4), n, 2)))
        at = data.index(b"t%d " % row) + len(b"t%d " % row)
        data[at + 4:at + 8] = np.float32(np.nan).tobytes()
        data[-4:] = np.float32(np.inf).tobytes()
        binary.append(bytes(data))
        valid = _saved(save_binary, random_embedding(np.random.default_rng(5), n, 2))
        start = len(b"%d 2\n" % n) + sum(len(b"t%d" % i) + 9 for i in range(row))
        binary += [valid[:start + cut] for cut in (1, 5, 9)]
    return [("text", d) for d in text] + [("bin", d) for d in binary]


# drift's after set in the cases below: every other wN token, so that a
# streamed file's tokens are recorded both by their after row and by name
_AFTER_TOKENS = [f"w{i}" for i in range(0, 3 * BLOCK_ROWS, 2)] + ["a", "ok", "abc", "t3"]


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt,data", _malformed_files())
def test_block_file_fails_as_load_file_does(fmt, data):
    assert_streams_as_it_loads(data, fmt, _AFTER_TOKENS)


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 1025])
def test_block_file_yields_what_a_load_holds(fmt, n):
    emb = bit_random_embedding(np.random.default_rng(n), n, 3)
    data = _saved(save_text if fmt == "text" else save_binary, emb)
    assert_streams_as_it_loads(data, fmt, emb.words[::3] + ["elsewhere"])


def test_block_file_reads_its_header_on_open_and_rereads_its_blocks(tmp_path):
    path = str(tmp_path / "v.bin")
    emb = random_embedding(np.random.default_rng(8), BLOCK_ROWS + 3, 4)
    with open(path, "wb") as f:
        save_binary(emb, f)
    with BlockFile(path, "bin") as source:
        assert (len(source), source.dim) == (BLOCK_ROWS + 3, 4)
        for _ in range(2):
            blocks = [(tokens, rows.copy()) for tokens, rows in source.blocks()]
            assert [len(t) for t, _ in blocks] == [BLOCK_ROWS, 3]
            assert sum((t for t, _ in blocks), []) == emb.words
            assert np.concatenate([r for _, r in blocks]).tobytes() == emb.matrix.tobytes()
    with open(path, "wb") as f:
        f.write(b"2 x\n")
    with pytest.raises(EmbeddingFormatError, match="header: non-integer"):
        BlockFile(path, "bin")
    with pytest.raises(ValueError, match="unknown embedding format"):
        BlockFile(path, "json")


@pytest.mark.parametrize("fmt, message", [
    ("text", "line 1: header must be '<vocab_size> <dim>'"),
    ("bin", "byte 0: missing or unterminated header line"),
])
def test_a_header_without_a_newline_is_read_in_bounded_memory(tmp_path, fmt, message):
    path = str(tmp_path / "ones")
    with open(path, "wb") as f:
        f.write(b"1" * (8 << 20))
    for read in (BlockFile, load_file, lambda path, fmt: load_rows(path, fmt, ())):
        tracemalloc.start()
        try:
            with pytest.raises(EmbeddingFormatError) as caught:
                read(path, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == message
        assert peak < 1 << 20, peak


def test_a_text_header_below_the_line_limit_reads_as_before():
    padded = b"1 2" + b" " * 4000 + b"\n"
    assert load_text(io.BytesIO(padded + b"a 1 2\n")).words == ["a"]
    with pytest.raises(EmbeddingFormatError, match="declares 1 rows but file has 0"):
        load_text(io.BytesIO(b"1 2"))  # unterminated, at the end of the file


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
def test_block_file_read_again_yields_its_first_tokens_or_fails(tmp_path, fmt):
    path = tmp_path / "v"
    emb = random_embedding(np.random.default_rng(11), 2 * BLOCK_ROWS + 3, 4)
    path.write_bytes(_saved(save_text if fmt == "text" else save_binary, emb))
    with BlockFile(str(path), fmt) as source:
        # a read through a record of its caller's keeps nothing
        assert len(list(source.blocks(lambda tokens: True))) == 3
        for _ in range(3):
            assert [t for tokens, _ in source.blocks() for t in tokens] == emb.words
        # a token rewritten in place, at its length, in the second block
        data = path.read_bytes()
        assert data.count(b"\nt300 " if fmt == "text" else b"t300 ") == 1
        path.write_bytes(data.replace(b"t300 ", b"x300 "))
        blocks = source.blocks()
        assert next(blocks)[0] == emb.words[:BLOCK_ROWS]
        with pytest.raises(EmbeddingChangedError,
                           match="^the file changed after it was first read: rows 257 "
                                 "to 512 do not hold the tokens read there before$"):
            next(blocks)
        # so is a numeral rewritten in place, at its length, in the second block:
        # the leading digit of t300's first (text), a low bit of it (binary)
        changed = bytearray(data)
        at = data.index(b"t300 ") + len(b"t300 ")
        if fmt == "text":
            at = next(i for i in range(at, len(data)) if data[i:i + 1].isdigit())
            changed[at] = ord("0") + (changed[at] - ord("0") + 1) % 10
        else:
            changed[at] ^= 1
        path.write_bytes(bytes(changed))
        with pytest.raises(EmbeddingChangedError,
                           match="^the file changed after it was first read: rows 257 "
                                 "to 512 do not hold the vectors read there before$"):
            list(source.blocks())
        # so is a swap of two tokens of one block
        words = list(emb.words)
        words[5], words[7] = words[7], words[5]
        path.write_bytes(_saved(save_text if fmt == "text" else save_binary,
                                EmbeddingSet(words, emb.matrix)))
        with pytest.raises(EmbeddingChangedError, match="rows 1 to 256 do not hold"):
            list(source.blocks())
    # a first read that fails records nothing: the next read checks afresh
    path.write_bytes(data.replace(b"t300 ", b"t299 "))
    with BlockFile(str(path), fmt) as source:
        with pytest.raises(EmbeddingFormatError, match="duplicate token 't299'"):
            list(source.blocks())
        path.write_bytes(data)
        assert [t for tokens, _ in source.blocks() for t in tokens] == emb.words


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
def test_load_rows_keeps_the_rows_of_its_tokens_in_file_order(tmp_path, fmt):
    path = str(tmp_path / "v")
    emb = bit_random_embedding(np.random.default_rng(12), 3 * BLOCK_ROWS + 5, 3)
    with open(path, "wb") as f:
        (save_text if fmt == "text" else save_binary)(emb, f)
    wanted = [emb.words[i] for i in (700, 3, 3, 256, 255)] + ["absent"]
    kept = load_rows(path, fmt, wanted)
    order = sorted({emb.index[w] for w in wanted if w in emb.index})
    assert kept.words == [emb.words[i] for i in order]
    assert kept.index == {w: i for i, w in enumerate(kept.words)}
    assert kept.matrix.tobytes() == emb.matrix[order].tobytes()
    assert not kept.matrix.flags.writeable
    assert "absent" not in kept
    none = load_rows(path, fmt, ())
    assert (len(none), none.dim, none.matrix.shape) == (0, 3, (0, 3))


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("fmt", FORMATS)
def test_load_rows_reads_its_file_as_a_load_does(tmp_path, fmt, monkeypatch):
    """load_rows is a load that keeps some rows: it opens no BlockFile, and
    kept to every token it gives what load_file gives."""
    path = str(tmp_path / "v")
    emb = bit_random_embedding(np.random.default_rng(13), 2 * BLOCK_ROWS + 7, 3)
    with open(path, "wb") as f:
        (save_text if fmt == "text" else save_binary)(emb, f)
    loaded = load_file(path, fmt)

    def no_block_file(*args):
        raise AssertionError("load_rows opened a BlockFile")

    monkeypatch.setattr(embedding_io, "BlockFile", no_block_file)
    for tokens in (emb.words, set(emb.words), emb.words + ["absent"]):
        kept = load_rows(path, fmt, tokens)
        assert kept.words == loaded.words == emb.words
        assert kept.index == loaded.index
        assert kept.matrix.tobytes() == loaded.matrix.tobytes() == emb.matrix.tobytes()
        assert not kept.matrix.flags.writeable


@pytest.mark.usefixtures("kernel_or_not")
@pytest.mark.parametrize("n", [1, BLOCK_ROWS + 1])
def test_text_writer_writes_the_reference_bytes_from_any_block_source(tmp_path, n):
    # rows the kernel declines (bit patterns beyond its reach) among rows
    # it formats, non-ASCII tokens, and blocks of a reused buffer
    emb = bit_random_embedding(np.random.default_rng(n), n, 3)
    path = str(tmp_path / "v.bin")
    with open(path, "wb") as f:
        save_binary(emb, f)
    with BlockFile(path, "bin") as source:
        assert _saved(save_text, source) == _saved(save_text, emb) == reference_save_text(emb)


def test_load_checks_each_token_once(monkeypatch):
    """A load hands its index to the set; the set's constructor, which
    checks every token and value again, is for library callers."""
    files = ((load_binary, _saved(save_binary, random_embedding(np.random.default_rng(9), 600, 2))),
             (load_text, _text_data(600, 2, 9)))
    monkeypatch.setattr(EmbeddingSet, "__init__", None)  # a call would fail
    for load, raw in files:
        emb = load(io.BytesIO(raw))
        assert emb.index == {w: i for i, w in enumerate(emb.words)}
        assert not emb.matrix.flags.writeable


def test_set_blocks_record_each_block_before_yielding_it():
    emb = random_embedding(np.random.default_rng(10), BLOCK_ROWS + 1, 2)
    calls = []
    for tokens, _ in emb.blocks(lambda tokens: calls.append(tokens) or True):
        assert calls[-1] is tokens
    assert calls == [emb.words[:BLOCK_ROWS], emb.words[BLOCK_ROWS:]]
    with pytest.raises(ValueError, match="rows 0\\+ is recorded already"):
        next(emb.blocks(lambda tokens: False))
