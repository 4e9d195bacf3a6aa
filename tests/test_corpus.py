"""Unit tests for corpus parsing and the document/corpus containers."""
from __future__ import annotations

import io

import pytest

from classvec.corpus import (
    CorpusFormatError,
    Document,
    LabeledCorpus,
    from_documents,
    load_tsv,
    tokenize,
)


def _load(text: str, multilabel: bool = False) -> LabeledCorpus:
    return load_tsv(io.BytesIO(text.encode("utf-8")), multilabel=multilabel)


class TestTokenize:
    def test_lowercases_and_splits_on_whitespace(self):
        assert tokenize("The QUICK\tbrown\nfox") == ["the", "quick", "brown", "fox"]

    def test_unicode_whitespace_and_empty(self):
        assert tokenize("a b") == ["a", "b"]
        assert tokenize("   ") == []

    def test_punctuation_is_kept(self):
        assert tokenize("Hello, world!") == ["hello,", "world!"]


class TestDocument:
    def test_rejects_empty_tokens_or_labels(self):
        with pytest.raises(ValueError, match="no tokens"):
            Document((), ("a",))
        with pytest.raises(ValueError, match="no labels"):
            Document(("x",), ())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            Document(("x",), ("a", "a"))

    def test_is_immutable(self):
        d = Document(("x",), ("a",))
        with pytest.raises(AttributeError):
            d.tokens = ("y",)


class TestFromDocuments:
    def test_classes_in_first_appearance_order(self):
        docs = [
            Document(("x",), ("b",)),
            Document(("y",), ("a", "c")),
            Document(("z",), ("b",)),
        ]
        corpus = from_documents(docs)
        assert corpus.classes == ("b", "a", "c")
        assert len(corpus) == 3

    def test_corpus_validates_class_set(self):
        with pytest.raises(ValueError, match="classes do not match"):
            LabeledCorpus((Document(("x",), ("a",)),), ("a", "b"))
        with pytest.raises(ValueError, match="no documents"):
            LabeledCorpus((), ())


class TestLoadTsv:
    def test_basic_records(self):
        corpus = _load("pos\tGreat Movie\nneg\tawful plot twist\n")
        assert corpus.classes == ("pos", "neg")
        assert corpus.docs[0] == Document(("great", "movie"), ("pos",))
        assert corpus.docs[1] == Document(("awful", "plot", "twist"), ("neg",))

    def test_blank_lines_are_skipped(self):
        corpus = _load("\npos\ta b\n\n  \nneg\tc\n\n")
        assert len(corpus) == 2

    def test_text_may_contain_tabs(self):
        corpus = _load("pos\ta\tb c\n")
        assert corpus.docs[0].tokens == ("a", "b", "c")

    def test_label_whitespace_is_stripped(self):
        corpus = _load(" pos \ta\n")
        assert corpus.classes == ("pos",)

    def test_missing_tab_is_an_error_with_line_number(self):
        with pytest.raises(CorpusFormatError, match="line 2: no tab"):
            _load("pos\ta\nno separator here\n")

    def test_empty_label_or_text_is_an_error(self):
        with pytest.raises(CorpusFormatError, match="line 1: empty label"):
            _load("\ta b\n")
        with pytest.raises(CorpusFormatError, match="line 1: no tokens"):
            _load("pos\t   \n")

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(CorpusFormatError, match="no documents"):
            _load("\n\n")

    def test_rejects_invalid_utf8(self):
        with pytest.raises(CorpusFormatError, match="UTF-8"):
            load_tsv(io.BytesIO(b"pos\t\xff\xfe\n"))

    def test_multilabel_parsing(self):
        corpus = _load("a, b ,c\tsome text\nb\tmore text\n", multilabel=True)
        assert corpus.docs[0].labels == ("a", "b", "c")
        assert corpus.classes == ("a", "b", "c")

    def test_multilabel_duplicates_collapse_in_order(self):
        corpus = _load("b,a,b\tx\n", multilabel=True)
        assert corpus.docs[0].labels == ("b", "a")

    def test_multilabel_empty_part_is_an_error(self):
        with pytest.raises(CorpusFormatError, match="empty label"):
            _load("a,,b\tx\n", multilabel=True)

    def test_single_label_mode_keeps_commas_verbatim(self):
        corpus = _load("a,b\tx\n", multilabel=False)
        assert corpus.docs[0].labels == ("a,b",)
