"""Unit tests for the word2vec text/binary readers and writers."""
from __future__ import annotations

import io

import numpy as np
import pytest

from classvec.embedding_io import (
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

from _constructions import random_embedding


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
