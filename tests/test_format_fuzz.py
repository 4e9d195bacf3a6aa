"""Property tests for the three file parsers.

Arbitrary bytes and mutated valid files must give a parsed value or the
parser's typed format error, nothing else. The embedding readers must
also agree with the slow references in ``_constructions``: the same words
and bit-identical matrix, or the same error message. The text reader and
writer are checked twice per example, through the compiled kernel and
with it unavailable.
"""
from __future__ import annotations

import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from classvec.classifier import (  # noqa: E402
    ClassifierFormatError,
    ClassifierModel,
    load_classifier,
    save_classifier,
)
from classvec.embedding_io import (  # noqa: E402
    EmbeddingFormatError,
    EmbeddingSet,
    load_binary,
    load_text,
    parse_numerals,
    save_binary,
    save_text,
)

from _constructions import (  # noqa: E402
    _NUMERAL,
    ShortReads,
    disable_kernel,
    reference_load_binary,
    reference_load_text,
    reference_save_text,
)


def _outcome(load, data: bytes):
    """(words, matrix bytes) of a successful load, or the error message."""
    try:
        emb = load(data)
    except EmbeddingFormatError as e:
        return str(e)
    return emb.words, emb.matrix.tobytes()


def _without_kernel(fn, *args):
    """``fn(*args)`` with the compiled kernel unavailable."""
    with pytest.MonkeyPatch.context() as mp:
        disable_kernel(mp)
        return fn(*args)


def _assert_matches_reference(load, reference, data: bytes) -> None:
    fast = _outcome(lambda d: load(io.BytesIO(d)), data)
    if load is load_text:
        assert _without_kernel(_outcome, lambda d: load(io.BytesIO(d)), data) == fast
    if isinstance(fast, str) and "more than memory holds" in fast:
        # the references build the matrix row by row and never allocate
        # from the header; they must still reject the file
        assert isinstance(_outcome(reference, data), str)
        return
    assert fast == _outcome(reference, data)


@st.composite
def _embedding_sets(draw) -> EmbeddingSet:
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    words = draw(st.lists(
        st.text(st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
                min_size=1, max_size=4),
        min_size=n, max_size=n, unique=True,
    ))
    words = [w for w in words if w.split() == [w]]
    if not words:
        words = ["w"]
    bits = draw(st.lists(st.integers(0, 2**32 - 1), min_size=len(words) * m,
                         max_size=len(words) * m))
    matrix = np.array(bits, dtype=np.uint32).view(np.float32).reshape(len(words), m)
    matrix = np.where(np.isfinite(matrix), matrix, np.float32(1.5))
    return EmbeddingSet(words, matrix)


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes flipped, inserted or deleted."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(b" \n\t_.-+e0159x\x00\xa0\xff"))
        op = draw(st.sampled_from(("flip", "insert", "delete")))
        if op == "insert" or pos == len(data):
            data.insert(pos, byte)
        elif op == "flip":
            data[pos] = byte
        else:
            del data[pos]
    return bytes(data)


def _saved(save, emb: EmbeddingSet) -> bytes:
    buf = io.BytesIO()
    save(emb, buf)
    return buf.getvalue()


class TestTextReader:
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        _assert_matches_reference(load_text, reference_load_text, data)

    @given(st.data())
    def test_mutated_files(self, data):
        emb = data.draw(_embedding_sets())
        valid = _saved(save_text, emb)
        _assert_matches_reference(load_text, reference_load_text, valid)
        _assert_matches_reference(
            load_text, reference_load_text, data.draw(_mutated(valid))
        )

    @given(st.text("0123456789+-.eEinfatyINFATY_ \t\x1c٣", max_size=12))
    def test_numerals_agree_with_float(self, value):
        raw = value.encode()
        parsed = parse_numerals([raw], 1)
        if _NUMERAL.fullmatch(raw):
            assert parsed is not None
            assert parsed[0, 0] == float(value) or (
                np.isnan(parsed[0, 0]) and np.isnan(float(value))
            )
        else:
            assert parsed is None


class TestTextWriter:
    @given(st.data())
    def test_matches_reference_with_and_without_kernel(self, data):
        emb = data.draw(_embedding_sets())
        expected = reference_save_text(emb)
        assert _saved(save_text, emb) == expected
        assert _without_kernel(_saved, save_text, emb) == expected


class TestBinaryReader:
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        _assert_matches_reference(load_binary, reference_load_binary, data)

    @given(st.binary(max_size=48))
    def test_arbitrary_body_after_valid_header(self, body):
        _assert_matches_reference(
            load_binary, reference_load_binary, b"2 2\n" + body
        )

    @given(st.data())
    def test_mutated_files(self, data):
        emb = data.draw(_embedding_sets())
        valid = _saved(save_binary, emb)
        _assert_matches_reference(load_binary, reference_load_binary, valid)
        _assert_matches_reference(
            load_binary, reference_load_binary, data.draw(_mutated(valid))
        )

    @given(st.data())
    def test_short_reads(self, data):
        """Chunk boundaries may fall anywhere in a token or a vector."""
        emb = data.draw(_embedding_sets())
        raw = data.draw(_mutated(_saved(save_binary, emb)))
        step = data.draw(st.integers(1, 7))
        _assert_matches_reference(
            lambda source: load_binary(ShortReads(source.read(), step)),
            reference_load_binary, raw,
        )


def _load_classifier_or_error(data: bytes):
    try:
        return load_classifier(io.BytesIO(data))
    except ClassifierFormatError as e:
        return e


class TestClassifierReader:
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, data):
        result = _load_classifier_or_error(data)
        assert isinstance(result, (ClassifierModel, ClassifierFormatError))

    @given(st.data())
    def test_mutated_files(self, data):
        k = data.draw(st.integers(2, 3))
        m = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(
            st.floats(-1e3, 1e3), min_size=(m + 1) * k, max_size=(m + 1) * k
        ))
        params = np.array(values).reshape(m + 1, k)
        model = ClassifierModel(
            params[:m], params[m], tuple(f"c{j}" for j in range(k)), "exclusive"
        )
        valid = _saved(save_classifier, model)
        back = load_classifier(io.BytesIO(valid))
        assert back.weights.tobytes() == model.weights.tobytes()
        result = _load_classifier_or_error(data.draw(_mutated(valid)))
        assert isinstance(result, (ClassifierModel, ClassifierFormatError))
