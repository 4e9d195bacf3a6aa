"""Reading and writing word vectors in the two word2vec interchange formats.

Text format: an ASCII header line ``<vocab_size> <dim>`` followed by one
``<token> <v1> ... <v_dim>`` line per word, single-space separated.

Binary format: the same ASCII header line, then for every word the UTF-8
token bytes, a single 0x20 byte, and ``dim`` little-endian IEEE-754
32-bit floats. No separator follows the vector.

Format selection is always explicit (see :func:`load_file`); files are
never sniffed. Malformed input is a hard error carrying the offending
line number or byte offset.

Readers and writers work on blocks of ``BLOCK_ROWS`` rows. Both readers
stream: a load holds the matrix plus about one block of input, never the
whole file. A reader hands each chunk of raw bytes to a scanner of the
compiled kernel (``_kernel.c``), which in one call writes the chunk's
values straight into the matrix and its tokens, joined by single spaces,
into one buffer; Python then decodes, splits and checks those tokens once
per chunk. Text numerals take the kernel's exact fast path (one correctly
rounded operation), which accepts nearly every numeral a writer emits.
A row the scanner declines, and every row when the kernel is unavailable,
goes through the Python block code here, with one array-level call per
block for values and tokens; it is the reference and the only source of
error messages. When a block fails a check, a row-by-row scan of that
block names its first bad row.
"""
from __future__ import annotations

import io
from itertools import islice
from typing import BinaryIO, Iterator

import numpy as np

from . import _kernel
from ._names import FORMATS

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

    def blocks(self) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and rows of each block of ``BLOCK_ROWS`` rows, in
        order, as the writers take them."""
        for start in range(0, len(self), BLOCK_ROWS):
            yield self.words[start:start + BLOCK_ROWS], self.matrix[start:start + BLOCK_ROWS]


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


def _add_words(seen: set[str], words: list[str], joined: bytes) -> bool:
    """Decode a block's tokens, joined by single spaces, and append them to
    ``words`` and ``seen`` (which holds the same tokens); False, changing
    nothing, if any of them is empty, holds whitespace, is not UTF-8 or
    repeats (:func:`_token_error` says which)."""
    try:
        text = joined.decode("utf-8")
    except UnicodeDecodeError:
        return False
    block = text.split(" ")
    # str.split() drops empty tokens and splits at every whitespace character
    if text.split() != block:
        return False
    seen.update(block)
    if len(seen) != len(words) + len(block):
        seen.clear()  # a repeat: put seen back as it was
        seen.update(words)
        return False
    words.extend(block)
    return True


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


def _line_chunks(source: BinaryIO, size: int) -> Iterator[bytes]:
    """The rest of a text stream in chunks of about ``size`` bytes of whole
    lines, each ending in a newline (an unterminated last line gets one)."""
    while chunk := source.read(size):
        if not chunk.endswith(b"\n"):
            chunk += source.readline()
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
        yield chunk


def _lines_left(lines: io.BytesIO, chunks: Iterator[bytes]) -> int:
    """The lines not yet read of the current chunk and of the rest."""
    return sum(1 for _ in lines) + sum(chunk.count(b"\n") for chunk in chunks)


def _read_text_rows(source: BinaryIO, matrix: np.ndarray) -> list[str]:
    """Fill ``matrix`` from the text rows after the header, one chunk of
    whole lines at a time; return the tokens."""
    n, m = matrix.shape
    words: list[str] = []
    seen: set[str] = set()
    # room for BLOCK_ROWS rows of the widest '%.9g' numerals
    chunks = _line_chunks(source, BLOCK_ROWS * (_kernel.FORMAT_BYTES * m + 16))
    chunk = b""
    lines = io.BytesIO(chunk)  # the chunk, read up to the first unparsed line
    while len(words) < n:
        row = len(words)
        want = min(BLOCK_ROWS, n - row)
        pos = lines.tell()
        if pos == len(chunk):
            chunk = next(chunks, b"")
            if not chunk:
                raise _row_count_error(n, row)
            lines, pos = io.BytesIO(chunk), 0
        scanned = _kernel.scan_text(chunk, pos, matrix[row:row + want])
        if scanned and scanned[0] and _add_words(seen, words, scanned[2]):
            lines.seek(scanned[1])
            continue
        # the Python block, from the first line the scanner did not take
        parts = [line.partition(b" ") for line in islice(lines, want)]
        values = None
        if _add_words(seen, words, b" ".join([p[0] for p in parts])):
            values = parse_numerals([p[2] for p in parts], m)
        if values is not None:
            values = _to_float32(values)
        if values is None or not np.isfinite(values).all():
            bad = [b"".join(p).rstrip(b"\n") for p in parts]
            error = _text_line_error(bad, row + 2, m, set(words[:row]))
            # a wrong row count outranks any row's error, as a whole-file
            # reader would find it first
            rows = row + len(parts) + _lines_left(lines, chunks)
            raise _row_count_error(n, rows) if rows != n else error
        matrix[row:row + len(parts)] = values
    extra = _lines_left(lines, chunks)
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
    """Write the word2vec text format of ``emb``: an :class:`EmbeddingSet`,
    or anything else with its ``len``, ``dim`` and ``blocks()``, such as
    ``vocab.TunedEmbedding``.

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
    for words, block in emb.blocks():
        block = np.ascontiguousarray(block)
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
    while len(words) < n:
        row = len(words)
        stop = min(n, row + BLOCK_ROWS)
        if len(data) < chunk:
            read_more()  # so that most scans take BLOCK_ROWS rows
        scanned = _kernel.scan_binary(data, 0, matrix[row:stop])
        if scanned and scanned[0] and _add_words(seen, words, scanned[2]):
            del data[:scanned[1]]
            base += scanned[1]
            continue
        if scanned and not scanned[0] and not scanned[3] and read_more():
            continue  # the row runs past the bytes read so far
        # the Python block, from the first row the scanner did not take
        tokens: list[bytes] = []
        starts: list[int] = []
        vec_at: list[int] = []
        failure = None
        pos = 0
        for i in range(row, stop):
            end = data.find(b" ", pos)
            while end < 0:
                searched = len(data)
                if not read_more():
                    break
                end = data.find(b" ", searched)
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
        vectors = None
        if failure is None and _add_words(seen, words, b" ".join(tokens)):
            raw = b"".join([data[a:a + vec_bytes] for a in vec_at])
            vectors = np.frombuffer(raw, dtype="<f4").reshape(len(vec_at), m)
        if vectors is None or not np.isfinite(vectors).all():
            raise _binary_row_error(
                data, base, tokens, starts, vec_at, m, set(words[:row]), failure
            )
        matrix[row:row + len(vec_at)] = vectors
        del data[:pos]
        base += pos
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
    """Write the word2vec binary format of ``emb``, taken as
    :func:`save_text` takes it; round trips bit-exactly."""
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    sink.write(f"{len(emb)} {emb.dim}\n".encode("ascii"))
    row = np.dtype(f"V{4 * emb.dim}")  # one row's bytes, as one bytes object
    for words, block in emb.blocks():
        block = np.ascontiguousarray(block, dtype="<f4")
        # token, space, vector per row: tokens hold no whitespace, so one
        # encode and split gives every token's bytes
        parts = [b" "] * (3 * len(words))
        parts[0::3] = " ".join(words).encode("utf-8").split(b" ")
        parts[2::3] = block.view(row).ravel().tolist()
        sink.write(b"".join(parts))


def load_file(path: str, fmt: str) -> EmbeddingSet:
    """Load embeddings from ``path`` in the explicitly named format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    with open(path, "rb") as f:
        return load_text(f) if fmt == "text" else load_binary(f)
