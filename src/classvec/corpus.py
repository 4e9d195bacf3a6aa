"""Labeled-corpus ingestion: TSV records of ``<label>\\t<text>``.

In multilabel mode the label field holds comma-separated class names.
Text is lowercased and split on Unicode whitespace, nothing more. Class
order is first appearance.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO


class CorpusFormatError(ValueError):
    """Raised when a corpus record cannot be parsed."""


def tokenize(text: str) -> list[str]:
    """Lowercase ``text`` and split it on Unicode whitespace."""
    return text.lower().split()


@dataclass(frozen=True)
class Document:
    """One training instance: its tokens and one or more class labels."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("document has no tokens")
        if not self.labels:
            raise ValueError("document has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels: {self.labels}")


@dataclass(frozen=True)
class LabeledCorpus:
    """Tokenized documents plus the class set, in first-appearance order."""

    docs: tuple[Document, ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.docs:
            raise ValueError("corpus has no documents")
        observed = {l for d in self.docs for l in d.labels}
        if observed != set(self.classes):
            raise ValueError("classes do not match the labels observed in docs")

    def __len__(self) -> int:
        return len(self.docs)


def from_documents(docs: list[Document]) -> LabeledCorpus:
    """Assemble a corpus, collecting classes in first-appearance order."""
    classes = dict.fromkeys(label for d in docs for label in d.labels)
    return LabeledCorpus(tuple(docs), tuple(classes))


def _parse_labels(field: str, multilabel: bool, lineno: int) -> tuple[str, ...]:
    if multilabel:
        parts = [p.strip() for p in field.split(",")]
        if any(not p for p in parts):
            raise CorpusFormatError(f"line {lineno}: empty label in {field!r}")
        # repeated labels collapse, order kept
        return tuple(dict.fromkeys(parts))
    label = field.strip()
    if not label:
        raise CorpusFormatError(f"line {lineno}: empty label")
    return (label,)


def load_tsv(source: BinaryIO, multilabel: bool = False) -> LabeledCorpus:
    """Parse a UTF-8 TSV stream of ``<label>\\t<text>`` records.

    A leading byte-order mark and blank lines are skipped; every other
    malformed line is a hard error reported with its line number.
    """
    try:
        text = source.read().decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise CorpusFormatError(f"not valid UTF-8: {e}") from None
    docs: list[Document] = []
    for i, line in enumerate(text.split("\n")):
        lineno = i + 1
        if not line.strip():
            continue
        if "\t" not in line:
            raise CorpusFormatError(f"line {lineno}: no tab separator")
        label_field, doc_text = line.split("\t", 1)
        labels = _parse_labels(label_field, multilabel, lineno)
        tokens = tokenize(doc_text)
        if not tokens:
            raise CorpusFormatError(f"line {lineno}: no tokens after tokenization")
        docs.append(Document(tuple(tokens), labels))
    if not docs:
        raise CorpusFormatError("corpus has no documents")
    return from_documents(docs)
