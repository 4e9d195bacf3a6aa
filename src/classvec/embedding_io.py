"""Reading and writing word vectors in the two word2vec interchange formats.

Text format: an ASCII header line ``<vocab_size> <dim>`` followed by one
``<token> <v1> ... <v_dim>`` line per word, single-space separated.

Binary format: the same ASCII header line, then for every word the UTF-8
token bytes, a single 0x20 byte, and ``dim`` little-endian IEEE-754
32-bit floats. No separator follows the vector.

Format selection is always explicit (see :func:`load_file`); files are
never sniffed. Malformed input is a hard error carrying the offending
line number or byte offset.

Readers and writers work on blocks of ``BLOCK_ROWS`` rows, with one
array-level call per block for values and tokens. Both readers stream:
a load holds the matrix plus about one block of input, never the whole
file. When a block fails a check, a row-by-row scan of that block names
its first bad row.

Text values go through the compiled kernel (``_kernel.c``) where it can
convert them exactly with one correctly rounded operation, which is
nearly always; anything it declines, and everything when it is
unavailable, goes through the Python code here, which gives the same
bytes, values and errors.
"""
from __future__ import annotations

from itertools import islice
from typing import BinaryIO

import numpy as np

from . import _kernel

BLOCK_ROWS = 256

# Bytes a word2vec numeral may hold: digits, sign, point, exponent and the
# letters of inf, infinity and nan. float() would also take '1_0', padding
# whitespace and non-ASCII digits; no word2vec writer emits those.
_NUMERAL_BYTES = b"0123456789+-.eEinfatyINFATY"


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates its declared format."""


class EmbeddingSet:
    """An immutable vocabulary-indexed matrix of word vectors.

    Vectors are stored as 32-bit floats; ``matrix`` is made read-only so a
    loaded set can be shared across threads. Tokens are unique, non-empty
    and contain no whitespace (both file formats require this).
    """

    def __init__(self, words: list[str], matrix: np.ndarray):
        words = list(words)
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
        # checked a block of rows per call, so no temporary spans the matrix
        blocks = range(0, len(words), BLOCK_ROWS)
        if not all(np.isfinite(matrix[i:i + BLOCK_ROWS]).all() for i in blocks):
            raise ValueError("matrix contains non-finite values")
        index = dict(zip(words, range(len(words))))
        # str.split() drops empty tokens and splits at exactly the characters
        # str.isspace() accepts
        if len(index) != len(words) or any(
            " ".join(words[i:i + BLOCK_ROWS]).split() != words[i:i + BLOCK_ROWS]
            for i in blocks
        ):
            seen: set[str] = set()
            for i, w in enumerate(words):
                if not w or any(c.isspace() for c in w):
                    raise ValueError(f"invalid token at row {i}: {w!r}")
                if w in seen:
                    raise ValueError(f"duplicate token at row {i}: {w!r}")
                seen.add(w)
        self.words = words
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
    # bytes.isdigit() accepts ASCII digits only; int() also takes '1_0' or '+1'
    if not (parts[0].isdigit() and parts[1].isdigit()):
        raise EmbeddingFormatError(f"{what}: non-integer header fields")
    n, m = int(parts[0]), int(parts[1])
    if n < 1:
        raise EmbeddingFormatError(f"{what}: vocabulary size must be >= 1, got {n}")
    if m < 1:
        raise EmbeddingFormatError(f"{what}: dimensionality must be >= 1, got {m}")
    return n, m


def _allocate(n: int, m: int, what: str) -> np.ndarray:
    """The float32 matrix a header declares. Its pages are touched only as
    rows arrive, so a header larger than its file costs no memory; one too
    large to allocate at all is a format error, not a MemoryError."""
    try:
        return np.empty((n, m), dtype=np.float32)
    except (MemoryError, ValueError):
        raise EmbeddingFormatError(
            f"{what}: {n} x {m} values are more than memory holds"
        ) from None


def _decode_tokens(tokens: list[bytes]) -> list[str] | None:
    """Decode a block of tokens at once; None if any of them is empty,
    holds whitespace or is not UTF-8 (:func:`_token_error` says which)."""
    try:
        text = b" ".join(tokens).decode("utf-8")
    except UnicodeDecodeError:
        return None
    words = text.split(" ")
    return words if text.split() == words else None


def _token_error(token: bytes, seen: set[str]) -> str | None:
    """What is wrong with one token, or None after adding it to ``seen``."""
    if not token:
        return "empty token"
    if b"\n" in token:
        return "token contains a newline byte"
    try:
        word = token.decode("utf-8")
    except UnicodeDecodeError:
        return "token is not valid UTF-8"
    if word.split() != [word]:
        return f"whitespace in token {word!r}"
    if word in seen:
        return f"duplicate token {word!r}"
    seen.add(word)
    return None


def _add_words(seen: set[str], words: list[str], block: list[str]) -> bool:
    """Append a decoded block to ``words``; False if a token repeats."""
    seen.update(block)
    words.extend(block)
    return len(seen) == len(words)


def parse_numerals(rows: list[bytes], m: int) -> np.ndarray | None:
    """Parse rows of ``m`` single-space-separated numerals in one call.

    A row may end in one newline. Returns a float64 array of shape
    (len(rows), m), each value what float() gives for its numeral, or None
    if any value is malformed or a row holds another number of fields.
    Shared with the classifier reader.
    """
    if b"" in rows or b"\n" in rows:
        return None
    if b"".join(rows).translate(None, _NUMERAL_BYTES + b" \n"):
        return None
    try:
        parsed = np.loadtxt(
            rows, dtype=np.float64, delimiter=" ", comments=None, ndmin=2,
            encoding="latin1",
        )
    except ValueError:
        return None
    # an empty field fails the parse and a short or long row the shape
    return parsed if parsed.shape == (len(rows), m) else None


def _to_float32(values: np.ndarray) -> np.ndarray:
    """Round parsed float64 values to float32, as ``np.float32(float(text))``
    does; values beyond the float32 range become inf."""
    with np.errstate(over="ignore"):
        return values.astype(np.float32)


def _row_count_error(n: int, rows: int) -> EmbeddingFormatError:
    return EmbeddingFormatError(f"header declares {n} rows but file has {rows}")


def _text_line_error(
    lines: list[bytes], lineno: int, m: int, seen: set[str]
) -> EmbeddingFormatError:
    """The error of the first bad line in a block that failed a block check."""
    for lineno, line in enumerate(lines, lineno):
        fields = line.count(b" ") + 1
        if fields != m + 1:
            return EmbeddingFormatError(
                f"line {lineno}: expected {m + 1} space-separated fields, "
                f"got {fields}"
            )
        token, _, values = line.partition(b" ")
        problem = _token_error(token, seen)
        if problem is None:
            row = parse_numerals([values], m)
            if row is None:
                problem = "malformed value"
            elif not np.isfinite(_to_float32(row)).all():
                problem = "non-finite value"
        if problem is not None:
            return EmbeddingFormatError(f"line {lineno}: {problem}")
    raise RuntimeError("a text block failed its checks but none of its lines did")


def _read_text_rows(source: BinaryIO, matrix: np.ndarray) -> list[str]:
    """Fill ``matrix`` from the text rows after the header, one block of
    lines at a time; return the tokens."""
    n, m = matrix.shape
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < n:
        row = len(words)
        want = min(BLOCK_ROWS, n - row)
        parts = [line.partition(b" ") for line in islice(source, want)]
        if len(parts) < want:
            raise _row_count_error(n, row + len(parts))
        block = _decode_tokens([p[0] for p in parts])
        values = None
        if block is not None and _add_words(seen, words, block):
            # every value part but the file's last ends in its line's newline
            value_parts = [p[2] for p in parts]
            data = b"".join(value_parts)
            values = _kernel.parse_rows(
                data if data.endswith(b"\n") else data + b"\n", want, m
            )
            if values is None:
                values = parse_numerals(value_parts, m)
        if values is not None:
            values = _to_float32(values)
        if values is None or not np.isfinite(values).all():
            lines = [b"".join(p).rstrip(b"\n") for p in parts]
            error = _text_line_error(lines, row + 2, m, set(words[:row]))
            # a wrong row count outranks any row's error, as a whole-file
            # reader would find it first
            rows = row + want + sum(1 for _ in source)
            raise _row_count_error(n, rows) if rows != n else error
        matrix[row:row + want] = values
    extra = sum(1 for _ in source)
    if extra:
        raise _row_count_error(n, n + extra)
    return words


def load_text(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec text format from a binary stream."""
    header = source.readline()
    if not header:
        raise EmbeddingFormatError("empty file")
    n, m = _parse_header(header, "line 1")
    matrix = _allocate(n, m, "line 1")
    return EmbeddingSet(_read_text_rows(source, matrix), matrix)


def save_text(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec text format.

    Components are printed as ``'%.9g' % value`` prints them: 9
    significant digits, '.' decimal point, no locale; enough to
    reconstruct every 32-bit float bit-exactly on reload. The compiled
    kernel formats every row whose values it can convert exactly; Python
    formats the rest and every row when the kernel is unavailable, with the
    same bytes.
    """
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    sink.write(f"{len(emb)} {emb.dim}\n".encode("utf-8"))
    row_format = " ".join(["%.9g"] * emb.dim)
    for start in range(0, len(emb), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        block = np.ascontiguousarray(emb.matrix[start:stop])
        words = emb.words[start:stop]
        text, ends = _kernel.format_rows(block) or ("", [-1] * len(block))
        lines, begin = [], 0
        for i, (w, end) in enumerate(zip(words, ends)):
            if end < 0:
                lines.append(f"{w} {row_format % tuple(block[i].tolist())}\n")
            else:
                lines.append(f"{w} {text[begin:end]}\n")
                begin = end
        sink.write("".join(lines).encode("utf-8"))


def _binary_row_error(
    data: bytearray, base: int, tokens: list[bytes], starts: list[int],
    vec_at: list[int], m: int, seen: set[str], failure: str | None,
) -> EmbeddingFormatError:
    """The error of the first bad row in a block that failed a block check:
    rows are checked token first, then vector, and a truncation (``failure``)
    comes after the checks of every row read in full before it."""
    for r, token in enumerate(tokens):
        problem = _token_error(token, seen)
        if problem is not None:
            return EmbeddingFormatError(f"byte {base + starts[r]}: {problem}")
        if r < len(vec_at):
            if not np.isfinite(np.frombuffer(data, "<f4", m, vec_at[r])).all():
                return EmbeddingFormatError(
                    f"byte {base + vec_at[r]}: non-finite value"
                )
    if failure is None:
        raise RuntimeError("a binary block failed its checks but none of its rows did")
    return EmbeddingFormatError(failure)


def _read_binary_rows(source: BinaryIO, base: int, matrix: np.ndarray) -> list[str]:
    """Fill ``matrix`` from the binary rows that start at file offset
    ``base``, reading about one block of rows at a time; return the tokens."""
    n, m = matrix.shape
    vec_bytes = 4 * m
    chunk = BLOCK_ROWS * (vec_bytes + 16)
    data = bytearray()  # the stream from file offset base, not yet parsed
    eof = False

    def read_more() -> bool:
        """Append the next chunk to ``data``; False at the end of the stream."""
        nonlocal eof
        if not eof:
            got = source.read(chunk)
            data.extend(got)
            eof = not got
        return not eof

    words: list[str] = []
    seen: set[str] = set()
    pos = 0
    while len(words) < n:
        row = len(words)
        tokens: list[bytes] = []
        starts: list[int] = []
        vec_at: list[int] = []
        failure = None
        for i in range(row, min(n, row + BLOCK_ROWS)):
            end = data.find(b" ", pos)
            while end < 0:
                scanned = len(data)
                if not read_more():
                    break
                end = data.find(b" ", scanned)
            if end < 0:
                failure = (
                    f"byte {base + len(data)}: truncated stream inside token "
                    f"{i + 1} of {n}"
                )
                break
            tokens.append(bytes(data[pos:end]))
            starts.append(pos)
            pos = end + 1
            while pos + vec_bytes > len(data) and read_more():
                pass
            if pos + vec_bytes > len(data):
                failure = (
                    f"byte {base + pos}: truncated stream mid-vector "
                    f"(word {i + 1} of {n}, got {len(data) - pos} of "
                    f"{vec_bytes} bytes)"
                )
                break
            vec_at.append(pos)
            pos += vec_bytes
        block = _decode_tokens(tokens)
        vectors = None
        if failure is None and block is not None and _add_words(seen, words, block):
            raw = b"".join([data[a:a + vec_bytes] for a in vec_at])
            vectors = np.frombuffer(raw, dtype="<f4").reshape(len(vec_at), m)
        if vectors is None or not np.isfinite(vectors).all():
            raise _binary_row_error(
                data, base, tokens, starts, vec_at, m, set(words[:row]), failure
            )
        matrix[row:row + len(vec_at)] = vectors
        del data[:pos]
        base, pos = base + pos, 0
    if data or read_more():
        raise EmbeddingFormatError(f"byte {base}: trailing data after last vector")
    return words


def load_binary(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec binary format from a binary stream."""
    header = source.readline()
    if not header.endswith(b"\n"):
        raise EmbeddingFormatError("byte 0: missing or unterminated header line")
    n, m = _parse_header(header, "header")
    matrix = _allocate(n, m, "header")
    return EmbeddingSet(_read_binary_rows(source, len(header), matrix), matrix)


def save_binary(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec binary format; round trips bit-exactly."""
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    sink.write(f"{len(emb)} {emb.dim}\n".encode("ascii"))
    row_bytes = 4 * emb.dim
    for start in range(0, len(emb), BLOCK_ROWS):
        stop = start + BLOCK_ROWS
        raw = np.ascontiguousarray(emb.matrix[start:stop], dtype="<f4").tobytes()
        sink.write(b"".join([
            w.encode("utf-8") + b" " + raw[j:j + row_bytes]
            for w, j in zip(emb.words[start:stop], range(0, len(raw), row_bytes))
        ]))


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
