"""Reading and writing word vectors in the two word2vec interchange formats.

Text format: an ASCII header line ``<vocab_size> <dim>`` followed by one
``<token> <v1> ... <v_dim>`` line per word, single-space separated.

Binary format: the same ASCII header line, then for every word the UTF-8
token bytes, a single 0x20 byte, and ``dim`` little-endian IEEE-754
32-bit floats. No separator follows the vector.

Format selection is always explicit (see :func:`load_file`); files are
never sniffed. Malformed input is a hard error carrying the offending
line number or byte offset.
"""
from __future__ import annotations

import io
from typing import BinaryIO

import numpy as np


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates its declared format."""


class EmbeddingSet:
    """An immutable vocabulary-indexed matrix of word vectors.

    Vectors are stored as 32-bit floats; ``matrix`` is made read-only so a
    loaded set can be shared across threads. Tokens are unique, non-empty
    and contain no whitespace (both file formats require this).
    """

    def __init__(self, words: list[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float32)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-dimensional")
        if len(words) == 0:
            raise ValueError("vocabulary must not be empty")
        if matrix.shape[0] != len(words):
            raise ValueError(
                f"{len(words)} words but {matrix.shape[0]} matrix rows"
            )
        if matrix.shape[1] < 1:
            raise ValueError("vector dimensionality must be >= 1")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix contains non-finite values")
        index: dict[str, int] = {}
        for i, w in enumerate(words):
            if not w or any(c.isspace() for c in w):
                raise ValueError(f"invalid token at row {i}: {w!r}")
            if w in index:
                raise ValueError(f"duplicate token at row {i}: {w!r}")
            index[w] = i
        self.words = list(words)
        self.index = index
        self.matrix = matrix
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def vector(self, token: str) -> np.ndarray:
        """Return the (read-only) vector for ``token``; KeyError if absent."""
        return self.matrix[self.index[token]]


def _parse_header(line: bytes, what: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(f"{what}: header must be '<vocab_size> <dim>'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError(f"{what}: non-integer header fields") from None
    if n < 1:
        raise EmbeddingFormatError(f"{what}: vocabulary size must be >= 1, got {n}")
    if m < 1:
        raise EmbeddingFormatError(f"{what}: dimensionality must be >= 1, got {m}")
    return n, m


def load_text(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec text format from a binary stream."""
    try:
        data = source.read().decode("utf-8")
    except UnicodeDecodeError as e:
        raise EmbeddingFormatError(f"not valid UTF-8: {e}") from None
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # single trailing newline
    if not lines:
        raise EmbeddingFormatError("empty file")
    n, m = _parse_header(lines[0].encode(), "line 1")
    if len(lines) - 1 != n:
        raise EmbeddingFormatError(
            f"header declares {n} rows but file has {len(lines) - 1}"
        )
    words: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((n, m), dtype=np.float32)
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        fields = line.split(" ")
        if len(fields) != m + 1:
            raise EmbeddingFormatError(
                f"line {lineno}: expected {m + 1} space-separated fields, "
                f"got {len(fields)}"
            )
        token = fields[0]
        if not token:
            raise EmbeddingFormatError(f"line {lineno}: empty token")
        if token in seen:
            raise EmbeddingFormatError(f"line {lineno}: duplicate token {token!r}")
        seen.add(token)
        # float() also takes '1_0', a stray tab or CR, and non-ASCII digits;
        # one scan of the whole numeric part keeps this off the per-field path
        values = line[len(token) + 1:]
        if not values.isascii() or any(c in values for c in "_\t\v\f\r"):
            raise EmbeddingFormatError(f"line {lineno}: malformed value")
        try:
            row = np.array([float(x) for x in fields[1:]], dtype=np.float32)
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno}: malformed value") from None
        if not np.isfinite(row).all():
            raise EmbeddingFormatError(f"line {lineno}: non-finite value")
        words.append(token)
        matrix[i] = row
    return EmbeddingSet(words, matrix)


def save_text(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec text format.

    Components are printed with 9 significant digits ('.' decimal point,
    no locale), enough to reconstruct every 32-bit float bit-exactly on
    reload.
    """
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    out = io.StringIO()
    out.write(f"{len(emb)} {emb.dim}\n")
    for i, token in enumerate(emb.words):
        row = " ".join(f"{float(v):.9g}" for v in emb.matrix[i])
        out.write(f"{token} {row}\n")
    sink.write(out.getvalue().encode("utf-8"))


def load_binary(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec binary format from a binary stream."""
    header = source.readline()
    if not header.endswith(b"\n"):
        raise EmbeddingFormatError("byte 0: missing or unterminated header line")
    n, m = _parse_header(header, "header")
    offset = len(header)
    words: list[str] = []
    seen: set[str] = set()
    matrix = np.empty((n, m), dtype=np.float32)
    vec_bytes = 4 * m
    for i in range(n):
        token_start = offset
        buf = bytearray()
        while True:
            b = source.read(1)
            if b == b"":
                raise EmbeddingFormatError(
                    f"byte {offset}: truncated stream inside token {i + 1} of {n}"
                )
            offset += 1
            if b == b" ":
                break
            buf += b
        if not buf:
            raise EmbeddingFormatError(f"byte {token_start}: empty token")
        if b"\n" in buf:
            raise EmbeddingFormatError(
                f"byte {token_start}: token contains a newline byte"
            )
        try:
            token = buf.decode("utf-8")
        except UnicodeDecodeError:
            raise EmbeddingFormatError(
                f"byte {token_start}: token is not valid UTF-8"
            ) from None
        if token in seen:
            raise EmbeddingFormatError(
                f"byte {token_start}: duplicate token {token!r}"
            )
        seen.add(token)
        raw = source.read(vec_bytes)
        if len(raw) != vec_bytes:
            raise EmbeddingFormatError(
                f"byte {offset}: truncated stream mid-vector "
                f"(word {i + 1} of {n}, got {len(raw)} of {vec_bytes} bytes)"
            )
        row = np.frombuffer(raw, dtype="<f4")
        if not np.isfinite(row).all():
            raise EmbeddingFormatError(f"byte {offset}: non-finite value")
        offset += vec_bytes
        words.append(token)
        matrix[i] = row
    if source.read(1) != b"":
        raise EmbeddingFormatError(f"byte {offset}: trailing data after last vector")
    return EmbeddingSet(words, matrix)


def save_binary(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec binary format; round trips bit-exactly."""
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    sink.write(f"{len(emb)} {emb.dim}\n".encode("ascii"))
    for i, token in enumerate(emb.words):
        sink.write(token.encode("utf-8"))
        sink.write(b" ")
        sink.write(np.ascontiguousarray(emb.matrix[i], dtype="<f4").tobytes())


FORMATS = ("text", "bin")


def load_file(path: str, fmt: str) -> EmbeddingSet:
    """Load embeddings from ``path`` in the explicitly named format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    with open(path, "rb") as f:
        return load_text(f) if fmt == "text" else load_binary(f)


def save_file(emb: EmbeddingSet, path: str, fmt: str) -> None:
    """Save embeddings to ``path`` in the explicitly named format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    with open(path, "wb") as f:
        save_text(emb, f) if fmt == "text" else save_binary(emb, f)
