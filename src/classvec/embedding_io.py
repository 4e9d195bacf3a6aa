"""Reading and writing word vectors in the two word2vec interchange formats.

Text format: an ASCII header line ``<vocab_size> <dim>`` followed by one
``<token> <v1> ... <v_dim>`` line per word, single-space separated.

Binary format: the same ASCII header line, then for every word the UTF-8
token bytes, a single 0x20 byte, and ``dim`` little-endian IEEE-754
32-bit floats. No separator follows the vector.

Format selection is always explicit (see :func:`load_file`); files are
never sniffed. Malformed input is a hard error carrying the offending
line number or byte offset.

Readers and writers work on blocks of ``BLOCK_ROWS`` rows. The reader, one
for both formats, is a stream of blocks: it reads the file a chunk at a
time into one block of rows that every block reuses, and yields each
block's tokens with its rows. It reads only regular files, which it opens
itself. :func:`load_file` collects that stream: it copies the rows it
keeps, every row or those of some tokens, out of each block into its
matrix, so it holds the matrix plus about one block of input. To find a
repeated token, the reader keeps one 8-byte fingerprint of each row's
token and compares them all once the stream ends, or before it raises an
error of its own; rows whose fingerprints are equal are read again to
compare their tokens. A read that stops early checks nothing.
:class:`BlockFile` gives the stream itself, for a caller that compares
two files block by block, or reads one twice, and never needs a matrix.
Its first read keeps one hash of each block's bytes and one of its
tokens. A later read checks each block's bytes against them
(:meth:`BlockFile.raw_blocks`) and parses those checked bytes, with no
token fingerprinted again; or it skips the parse, and
:meth:`BlockFile.splice` puts other values in some of a block's rows, so
a writer of the file's format copies the rows it does not change as
bytes (the frozen rows of ``vocab.TunedEmbedding``). :func:`errors_after`
drains a stream before another error, so a file's own errors come first.

The writers format the values of a block's rows in one call, the text
writer through the kernel's ``'%.9g'`` formatter with Python for the
rows it declines, and join them with the rows' tokens.

The reader tops the unparsed input up to a chunk of raw bytes with room
for a block and hands it to the format's scanner of the compiled kernel
(``_kernel.c``), which in one call writes a block's values into the
reader's block and its tokens, joined by single spaces, into one buffer;
Python then decodes, splits and checks those tokens once per block. Text
numerals take the kernel's exact fast path (one correctly rounded
operation), which accepts nearly every numeral a writer emits. A row the
scanner declines, and every row when the kernel is unavailable, goes
through the Python block code here, with one array-level call per block
for values and tokens; it is the reference and the only source of error
messages. When a block fails a check, a row-by-row scan of that block
names its first bad row.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from typing import BinaryIO, Callable, Collection, Iterator, NoReturn

import numpy as np

from . import _kernel
from ._names import FORMATS

BLOCK_ROWS = 256

# Bytes a word2vec numeral may hold: digits, sign, point, exponent and the
# letters of inf, infinity and nan. float() would also take '1_0', padding
# whitespace and non-ASCII digits; no word2vec writer emits those.
_NUMERAL_BYTES = b"0123456789+-.eEinfatyINFATY"

# The fingerprint of a token in the reader's repeat check: the builtin
# hash, salted per process, which is fine within one read
_fingerprint = hash


def _fingerprints(tokens: list[str]) -> bytes:
    """The int64 fingerprints of ``tokens``, as bytes."""
    return np.fromiter(map(_fingerprint, tokens), np.int64, len(tokens)).tobytes()


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates its declared format."""


class EmbeddingChangedError(ValueError):
    """Raised when an embedding file read again no longer holds what its
    first read found."""


class _BadRow(Exception):
    """The first bad row of a Python block: its error's message, then the
    tokens of the block's rows before it, and its own once that passed its
    checks, for a repeat among them to be reported first."""


class EmbeddingSet:
    """An immutable vocabulary-indexed matrix of word vectors.

    Vectors are stored as 32-bit floats; ``matrix`` is made read-only so a
    loaded set can be shared across threads. Tokens are unique, non-empty,
    contain no whitespace and encode as UTF-8 (:func:`token_problem`; both
    file formats require this).
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
        # a block of tokens per _tokens call, on the bytes of their join, in
        # which a lone surrogate is bytes that no UTF-8 decode accepts
        if len(index) != len(words) or any(
                _tokens(" ".join(block).encode("utf-8", "surrogatepass")) != block
                for block in (words[i:i + BLOCK_ROWS] for i in blocks)):
            seen: set[str] = set()
            for i, w in enumerate(words):
                if problem := token_problem(w):
                    raise ValueError(f"token at row {i} {problem}: {w!r}")
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
            rows = slice(start, start + BLOCK_ROWS)
            yield self.words[rows], self.matrix[rows]


def token_problem(word: str) -> str | None:
    """What keeps ``word`` from being a token of either file format:
    ``'is empty or holds whitespace'`` or ``'does not encode as UTF-8'``
    (a lone surrogate such as ``'\\ud800'``); None if nothing. The one
    statement of the token rule, which :func:`_tokens` applies to a block."""
    # str.split() drops an empty token and splits at exactly the characters
    # str.isspace() accepts
    if word.split() != [word]:
        return "is empty or holds whitespace"
    try:
        word.encode("utf-8")
    except UnicodeEncodeError:
        return "does not encode as UTF-8"
    return None


# Values a header may declare: numpy cannot shape a float32 array of more
_MAX_VALUES = np.iinfo(np.intp).max // 4
# Bytes a header line may take, so that a file without a newline is not read whole
_HEADER_BYTES = 4096
# Bytes a reader asks of its stream per call: a read allocates all it asks
# for, and a chunk sized by a wide header can be more than memory holds
_READ_BYTES = 1 << 20


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
    if n * m > _MAX_VALUES:
        raise _too_large(n, m, what)
    return n, m


def _too_large(n: int, m: int, what: str) -> EmbeddingFormatError:
    return EmbeddingFormatError(f"{what}: {n} x {m} values are more than memory holds")


def _read_header(source: BinaryIO, fmt: str) -> tuple[int, int, str, int]:
    """Read and check the header line of a ``fmt`` file; return the rows and
    the dimension it declares, how errors name it and its length in bytes."""
    header = source.readline(_HEADER_BYTES)
    if fmt == "text":
        if not header:
            raise EmbeddingFormatError("empty file")
        what = "line 1"
        if len(header) == _HEADER_BYTES and not header.endswith(b"\n"):
            raise EmbeddingFormatError(f"{what}: header must be '<vocab_size> <dim>'")
    else:
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError("byte 0: missing or unterminated header line")
        what = "header"
    return (*_parse_header(header, what), what, len(header))


def _allocate(n: int, m: int, what: str) -> np.ndarray:
    """The float32 matrix a header declares. Its pages are touched only as
    rows arrive, so a header larger than its file costs no memory; one too
    large to allocate at all is a format error, not a MemoryError."""
    try:
        return np.empty((n, m), dtype=np.float32)
    except MemoryError:
        raise _too_large(n, m, what) from None


def _token_error(token: bytes) -> str | None:
    """What is wrong with a row's token, but for a repeat; None if nothing."""
    if not token:
        return "empty token"
    if b"\n" in token:
        return "token contains a newline byte"
    try:
        word = token.decode("utf-8")
    except UnicodeDecodeError:
        return "token is not valid UTF-8"
    # a decoded token encodes again, so only whitespace is left to find
    return f"whitespace in token {word!r}" if token_problem(word) else None


def _tokens(joined: bytes) -> list[str] | None:
    """Decode a block's tokens, joined by single spaces; None if any of them
    fails :func:`token_problem`'s rule or is not UTF-8 (:func:`_token_error`
    says which)."""
    try:
        text = joined.decode("utf-8")
    except UnicodeDecodeError:
        return None
    block = text.split(" ")
    # token_problem's rule, for every token in one call: str.split() drops
    # empty tokens and splits at every whitespace character
    return block if text.split() == block else None


def parse_numerals(rows: list[bytes], m: int) -> np.ndarray | None:
    """Parse rows of ``m`` single-space-separated numerals in one call.

    A row may end in one newline. Returns a float64 array of shape
    (len(rows), m), each value what float() gives for its numeral, or None
    if any value is malformed or a row holds another number of fields.
    Shared with the classifier reader.
    """
    if b"" in rows or b"\n" in rows:
        return None
    # row by row, so that no copy of the whole block is made
    if any(row.translate(None, _NUMERAL_BYTES + b" \n") for row in rows):
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


def _find(data: bytearray, byte: bytes, pos: int, more: Callable[[], bool]) -> int:
    """The offset of the first ``byte`` in ``data`` from ``pos`` on, reading
    more of the stream into ``data`` as it needs to; -1 if the rest of the
    stream holds none."""
    while (at := data.find(byte, pos)) < 0:
        pos = len(data)
        if not more():
            return -1
    return at


def _lines_after(data: bytearray, pos: int, more: Callable[[], bool]) -> int:
    """The lines of a text stream from ``data[pos:]`` to its end, read a
    chunk at a time, each dropped once counted."""
    lines = 0
    while True:
        lines += data.count(b"\n", pos)
        del data[:-1]  # the last byte, for more() to see the last line's end
        pos = len(data)
        if not more():
            return lines


def _text_block(
    data: bytearray, more: Callable[[], bool], base: int, row: int, n: int,
    m: int, rows: int,
) -> tuple[list[str], np.ndarray, int]:
    """The Python block of up to ``rows`` text rows, row ``row`` on, at the
    start of ``data``: its tokens, its values and the bytes it takes; or
    the row count error, or else :class:`_BadRow` for the first row that a
    row-by-row reader rejects. ``more()`` reads more of the stream into
    ``data``."""
    end = 0
    for _ in range(rows):
        if (at := _find(data, b"\n", end, more)) < 0:
            break
        end = at + 1
    parts = [line.partition(b" ") for line in bytes(data[:end]).split(b"\n")[:-1]]
    values = parse_numerals([p[2] for p in parts], m) if parts else None
    if values is not None:
        values = _to_float32(values)
        if np.isfinite(values).all():
            block = _tokens(b" ".join([p[0] for p in parts]))
            if block is not None:
                return block, values, end
    # a wrong row count outranks any row's error, as a whole-file reader
    # would find it first
    rows = row + len(parts) + _lines_after(data, end, more)
    if rows != n:
        raise _row_count_error(n, rows)
    words: list[str] = []  # the tokens that passed their checks
    for row, (token, space, numerals) in enumerate(parts, row):
        fields = numerals.count(b" ") + 2 if space else 1
        if fields != m + 1:
            problem = f"expected {m + 1} space-separated fields, got {fields}"
        elif (problem := _token_error(token)) is None:
            words.append(token.decode("utf-8"))
            parsed = parse_numerals([numerals], m)
            if parsed is None:
                problem = "malformed value"
            elif not np.isfinite(_to_float32(parsed)).all():
                problem = "non-finite value"
        if problem is not None:
            # the line after the header, counted from 1
            raise _BadRow(f"line {row + 2}: {problem}", words)
    raise RuntimeError("a text block failed its checks but none of its lines did")


def save_text(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec text format of ``emb``: an :class:`EmbeddingSet`,
    or anything else with its ``len``, ``dim`` and ``blocks()``. A source
    with an ``encoded(fmt, values)`` method, such as
    ``vocab.TunedEmbedding``, gives the bytes of its rows itself.

    Components are printed as ``'%.9g' % value`` prints them: 9
    significant digits, '.' decimal point, no locale; enough to
    reconstruct every 32-bit float bit-exactly on reload. The compiled
    kernel formats every row whose values it can convert exactly; Python
    formats the rest and every row when the kernel is unavailable, with the
    same bytes.
    """
    # the kernel formats every block into this one buffer
    buffer = np.empty(BLOCK_ROWS * emb.dim * _kernel.FORMAT_BYTES, dtype=np.uint8)
    _save(emb, sink, "text", partial(_text_values, buffer=buffer))


def _text_values(block: np.ndarray, buffer: np.ndarray) -> list[bytes]:
    """The numerals of each row of a float32 block, as :func:`save_text`
    writes them; the kernel formats into ``buffer``, so the bytes of a row
    it formats are valid until ``buffer`` is written again."""
    block = np.ascontiguousarray(block)
    text, ends = _kernel.format_rows(block, buffer) or (b"", [-1] * len(block))
    row_format = " ".join(["%.9g"] * block.shape[1])
    values = []
    begin = 0
    for i, end in enumerate(ends):
        if end < 0:
            values.append((row_format % tuple(block[i].tolist())).encode("ascii"))
        else:
            values.append(text[begin:end])
            begin = end
    return values


def _binary_values(block: np.ndarray) -> list[bytes]:
    """The little-endian float32 bytes of each row of a block, as
    :func:`save_binary` writes them."""
    row = np.dtype(f"V{4 * block.shape[1]}")  # one row's bytes, as one bytes object
    return np.ascontiguousarray(block, dtype="<f4").view(row).ravel().tolist()


def encode_rows(fmt: str, words: list[str], values: list[bytes]) -> bytes:
    """The rows of ``words`` in ``fmt``: each token, a space and its row's
    value bytes (``values``, as :func:`_text_values` or
    :func:`_binary_values` gives them), and a newline in text."""
    # tokens hold no whitespace, so one encode and split gives every token's bytes
    parts = [b"", b" ", b"", b"\n" if fmt == "text" else b""] * len(words)
    parts[0::4] = " ".join(words).encode("utf-8").split(b" ")
    parts[2::4] = values
    return b"".join(parts)


def _save(emb, sink: BinaryIO, fmt: str, values: Callable[[np.ndarray], list[bytes]]
          ) -> None:
    """Write the header of ``emb`` and its rows in ``fmt``, ``values`` giving
    the value bytes of each row of a block: through ``emb.encoded(fmt,
    values)`` where ``emb`` has it, else formatted from ``emb.blocks()``."""
    if len(emb) < 1:
        raise ValueError("refusing to write an empty embedding set")
    sink.write(f"{len(emb)} {emb.dim}\n".encode("ascii"))
    encoded = getattr(emb, "encoded", None)
    for data in (encoded(fmt, values) if encoded is not None else
                 (encode_rows(fmt, words, values(block)) for words, block in emb.blocks())):
        sink.write(data)


def _binary_block(
    data: bytearray, more: Callable[[], bool], base: int, row: int, n: int,
    m: int, rows: int,
) -> tuple[list[str], np.ndarray, int]:
    """The Python block of up to ``rows`` binary rows, as :func:`_text_block`
    takes text rows; ``data`` starts at file offset ``base``."""
    vec_bytes = 4 * m
    tokens: list[bytes] = []
    starts: list[int] = []
    vec_at: list[int] = []
    failure = None
    pos = 0
    for i in range(row, row + rows):
        if (end := _find(data, b" ", pos, more)) < 0:
            failure = (
                f"byte {base + len(data)}: truncated stream inside token "
                f"{i + 1} of {n}"
            )
            break
        tokens.append(bytes(data[pos:end]))
        starts.append(pos)
        pos = end + 1
        while pos + vec_bytes > len(data) and more():
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
    if failure is None:
        raw = b"".join([data[a:a + vec_bytes] for a in vec_at])
        vectors = np.frombuffer(raw, dtype="<f4").reshape(len(vec_at), m)
        if np.isfinite(vectors).all():
            block = _tokens(b" ".join(tokens))
            if block is not None:
                return block, vectors, pos
    # the first bad row: rows are checked token first, then vector, and a
    # truncation comes after the checks of every row read in full before it
    words: list[str] = []  # the tokens that passed their checks
    for r, token in enumerate(tokens):
        if (problem := _token_error(token)) is not None:
            raise _BadRow(f"byte {base + starts[r]}: {problem}", words)
        words.append(token.decode("utf-8"))
        if r < len(vec_at) and not np.isfinite(
            np.frombuffer(data, "<f4", m, vec_at[r])
        ).all():
            raise _BadRow(f"byte {base + vec_at[r]}: non-finite value", words)
    if failure is None:
        raise RuntimeError("a binary block failed its checks but none of its rows did")
    raise _BadRow(failure, words)


def _block(
    fmt: str, data: bytearray, more: Callable[..., bool], base: int, row: int,
    n: int, m: int, out: np.ndarray,
) -> tuple[list[str], int] | None:
    """The tokens of a block of rows of ``data``, row ``row`` on, and the
    bytes it takes, its values read into ``out``: the scanner's rows, or the
    Python block's from a row the scanner declines; None if the scan needs
    more of the stream, which ``more(count)`` has then read."""
    scan, parse = ((_kernel.scan_text, _text_block) if fmt == "text"
                   else (_kernel.scan_binary, _binary_block))
    scanned = scan(data, out)
    if scanned and scanned[0] and (block := _tokens(scanned[2])):
        return block, scanned[1]
    if scanned and not scanned[0] and not scanned[3] and more(len(data)):
        return None  # the row runs past the bytes read: read as much again
    block, values, used = parse(data, more, base, row, n, m, len(out))
    out[:len(block)] = values
    return block, used


def _read_rows(
    source: BinaryIO, fmt: str, base: int, n: int, m: int, what: str, row: int = 0,
) -> Iterator[tuple[list[str], np.ndarray, memoryview]]:
    """Read the rows of ``m`` values of a ``fmt`` stream of ``n`` rows, from
    row ``row`` on, which starts at file offset ``base``, about one block at
    a time, into one block of rows that each block overwrites; yield each
    block's tokens with its rows and a read-only view of its bytes, as the
    reader read them. Both are valid until the next block is read. ``what``
    names the header in the error of a block too large to allocate.

    A token that repeats an earlier row's is an error of its own row. The
    reader keeps a fingerprint of each row's token and compares them once
    the stream ends, or before it raises an error that a repeat before it
    outranks; a read that stops early checks nothing."""
    text = fmt == "text"
    # a chunk holds BLOCK_ROWS rows of tokens of up to 15 bytes (text: and
    # of the widest '%.9g' numerals)
    size = BLOCK_ROWS * ((_kernel.FORMAT_BYTES if text else 4) * m + 16)
    data = bytearray()  # the stream from file offset base, not yet parsed
    first, start = row, base  # where the read began, to read rows again
    marks = bytearray()  # the int64 fingerprint of each row's token, from row first on

    def more(count: int = size) -> bool:
        """Read ``count`` more bytes of the stream into ``data``, or as many
        as are left; False if none are. At the end of the stream, an
        unterminated last text line gets its newline."""
        held = len(data)
        while len(data) < held + count:
            got = source.read(min(held + count - len(data), _READ_BYTES))
            if not got and text and data and not data.endswith(b"\n"):
                got = b"\n"
            if not got:
                break
            data.extend(got)
        return len(data) > held

    def repeat(pending: list[str]) -> str | None:
        """The error of the first row whose token repeats an earlier row's,
        among the rows yielded and those of ``pending``, the tokens of the
        rows from row ``row`` on; None if none does. The fingerprints are
        sorted in place; once two are equal, the rows are read again and
        the tokens of equal fingerprints compared."""
        marks.extend(_fingerprints(pending))
        read = np.frombuffer(marks, np.int64)
        read.sort()
        shared = set(read[1:][read[1:] == read[:-1]].tolist())
        if not shared:
            return None
        if row > first:
            source.seek(start)
        again = chain.from_iterable(tokens for tokens, _, _ in _read_rows(
            source, fmt, start, n, m, what, first))
        seen: set[str] = set()
        offset = start  # of row r, in binary
        # the read again stops before its end, so it checks nothing
        for r, token in enumerate(chain(islice(again, row - first), pending), first):
            if _fingerprint(token) in shared:
                if token in seen:
                    where = f"line {r + 2}" if text else f"byte {offset}"
                    return f"{where}: duplicate token {token!r}"
                seen.add(token)
            offset += len(token.encode("utf-8")) + 1 + 4 * m
        return None

    buffer = _allocate(min(BLOCK_ROWS, n - row), m, what)
    while row < n:
        out = buffer[:min(BLOCK_ROWS, n - row)]
        more(size - len(data))  # a full chunk, so that a scan takes BLOCK_ROWS rows
        try:
            if (step := _block(fmt, data, more, base, row, n, m, out)) is None:
                continue
        except _BadRow as bad:
            problem, words = bad.args
            raise EmbeddingFormatError(repeat(words) or problem) from None
        block, used = step
        marks.extend(_fingerprints(block))
        with memoryview(data) as view:
            raw = view[:used].toreadonly()
        yield block, out[:len(block)], raw
        raw.release()  # so that data can shrink
        del data[:used]
        base += used
        row += len(block)
    # a text file's extra lines outrank a repeat, which outranks a binary
    # file's trailing bytes
    if text and (extra := _lines_after(data, 0, more)):
        raise _row_count_error(n, n + extra)
    trailing = not text and (data or more())
    if problem := repeat([]):
        raise EmbeddingFormatError(problem)
    if trailing:
        raise EmbeddingFormatError(f"byte {base}: trailing data after last vector")


def save_binary(emb: EmbeddingSet, sink: BinaryIO) -> None:
    """Write the word2vec binary format of ``emb``, taken as
    :func:`save_text` takes it; round trips bit-exactly."""
    _save(emb, sink, "bin", _binary_values)


def _open(path: str, fmt: str) -> BinaryIO:
    """``path`` opened for reading, once ``fmt`` is known to be a format and
    ``path``, if it exists, a regular file (a reader seeks; a FIFO blocks)."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    if os.path.exists(path) and not os.path.isfile(path):
        raise ValueError(f"not a regular file: {path}")
    return open(path, "rb")


def load_file(path: str, fmt: str, tokens: Collection[str] | None = None
              ) -> EmbeddingSet:
    """Load embeddings from ``path`` in the explicitly named format: every
    row, or only the rows of the ``tokens`` the file has, in file order,
    copied out of the reader's blocks; either way the whole file is read
    once, with every check and error."""
    with _open(path, fmt) as source:
        n, m, what, base = _read_header(source, fmt)
        blocks = _read_rows(source, fmt, base, n, m, what)
        # pages of rows that are never kept are never touched; a matrix too
        # large to allocate is reported after the file's own errors
        with errors_after(blocks):
            matrix = _allocate(n if tokens is None else min(n, len(tokens)), m, what)
        words: list[str] = []
        for block_tokens, block, _ in blocks:
            keep = slice(None) if tokens is None else np.flatnonzero(np.fromiter(
                map(tokens.__contains__, block_tokens), bool, len(block_tokens)))
            start = len(words)
            words.extend(block_tokens if tokens is None
                          else map(block_tokens.__getitem__, keep.tolist()))
            matrix[start:len(words)] = block[keep]
    emb = EmbeddingSet.__new__(EmbeddingSet)
    emb.words, emb.matrix = words, matrix[:len(words)]
    emb.index = dict(zip(words, range(len(words))))
    emb.matrix.setflags(write=False)
    return emb


class BlockFile:
    """An embedding file read as a stream of blocks, never as a whole.

    Opening it reads and checks the header; :meth:`blocks` yields the
    reader's blocks themselves, with the checks and errors of
    :func:`load_file`: one block of ``BLOCK_ROWS`` rows that each block
    overwrites. (A stream allocates that block, not the file's matrix, so
    a header fails it as too large only if one block cannot be allocated.)
    It has the ``len``, ``dim`` and ``blocks()`` that the writers take;
    :meth:`raw_blocks` and :meth:`splice` give a writer of its format its
    rows' bytes instead. Close it, or use it as a context manager.
    """

    def __init__(self, path: str, fmt: str):
        self._file = _open(path, fmt)
        self.fmt = fmt
        # each block as the first read that completes found it: its rows,
        # its length in bytes, and 64-bit hashes of its bytes and of its
        # tokens
        self._record: list[tuple[int, int, int, int]] | None = None
        try:
            self._rows, self.dim, self._what, self._base = _read_header(self._file, fmt)
        except BaseException:
            self._file.close()
            raise

    def __len__(self) -> int:
        return self._rows

    def blocks(self) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and rows of each block, in order; the rows are valid
        until the next block is read. A failed check raises
        :class:`EmbeddingFormatError`, as a load does; a repeated token is
        found once the read ends, so a read that stops early checks none.

        The first read that completes keeps each block's rows and length
        with two 64-bit hashes: of its bytes and of its tokens. Every later
        read parses the checked bytes of :meth:`raw_blocks`, block for block
        as the first read found them, and raises what that raises: a file
        read twice yields the same tokens and rows twice."""
        if self._record is not None:
            buffer = _allocate(min(BLOCK_ROWS, len(self)), self.dim, self._what)
            row, base = 0, self._base
            for raw, rows in self.raw_blocks():
                # a block as the first read found it: the scanner takes all
                # its rows, or declines the first and the Python code takes all
                tokens, _ = _block(self.fmt, bytearray(raw), lambda *_: False, base, row,
                                   len(self), self.dim, buffer[:rows])
                row, base = row + rows, base + len(raw)
                yield tokens, buffer[:rows]
            return
        kept = []
        self._file.seek(self._base)
        for tokens, block, raw in _read_rows(
                self._file, self.fmt, self._base, len(self), self.dim, self._what):
            kept.append((len(tokens), len(raw), hash(bytes(raw)), hash(tuple(tokens))))
            yield tokens, block
        self._record = kept

    def raw_blocks(self) -> Iterator[tuple[bytes, int]]:
        """The bytes of each block and the rows it holds, as the first read
        of :meth:`blocks` found them (that read runs now if none has
        completed); a text file's last line always ends in a newline, which
        the reader adds where the file has none.

        Each block's bytes are read and checked against the first read's
        hash; a later :meth:`blocks` parses them. A block whose bytes
        differ, or the last block if bytes follow it, is parsed again from
        its offset and raises its format error first, then
        :class:`EmbeddingChangedError`, naming its tokens if they differ and
        its vectors otherwise (a numeral rewritten to its value too)."""
        if self._record is None:
            for _ in self.blocks():
                pass
        text = self.fmt == "text"
        offset = row = 0
        self._file.seek(self._base)
        for i, (rows, length, found, _) in enumerate(self._record):
            raw = self._file.read(length)
            if text and len(raw) < length:
                raw += b"\n"  # as the reader ends a last line that has none
            if hash(raw) != found:
                self._read_again(i, offset, row)
            yield raw, rows
            offset += length
            row += rows
        if self._file.read(1):
            self._read_again(len(self._record) - 1, offset - length, row - rows)

    def _read_again(self, i: int, offset: int, row: int) -> NoReturn:
        """Raise what reading block ``i`` again finds once its bytes, or those
        after the last block, differ from its first read's: a format error
        of its rows first, then :class:`EmbeddingChangedError`. The block
        starts at row ``row``, ``offset`` bytes after the header."""
        rows, _, found, tokens_found = self._record[i]
        self._file.seek(self._base + offset)
        reader = _read_rows(self._file, self.fmt, self._base + offset, len(self),
                            self.dim, self._what, row)
        # the reader's blocks until they cover the block's rows: a scan that
        # declines a row yields the rows before it as a block of their own
        tokens: list[str] = []
        raw: list[bytes] = []
        for got, _, view in reader:
            tokens += got
            raw.append(bytes(view))
            if len(tokens) >= rows:
                break
        if hash(b"".join(raw)) == found:
            for _ in reader:  # the bytes after the last block: their format error
                pass
        what = "tokens" if hash(tuple(tokens[:rows])) != tokens_found else "vectors"
        raise EmbeddingChangedError(
            f"the file changed after it was first read: rows {row + 1} to "
            f"{row + rows} do not hold the {what} read there before"
        )

    def splice(self, raw: bytes, at: list[int], values: list[bytes]) -> list[bytes]:
        """``raw``, a block's bytes from :meth:`raw_blocks`, with the values
        of its rows ``at`` (ascending, counted from the block's first row)
        replaced by ``values``: each row's value bytes as the writer of this
        file's format writes them. The result is pieces to be written one
        after another: views of ``raw`` between those values, so that no
        second copy of the block is made. Rows are located, not parsed: a
        text row ends at its newline, and a binary row's token at a space,
        followed by ``4 * dim`` bytes of values."""
        text, vector = self.fmt == "text", 4 * self.dim
        view = memoryview(raw)
        pieces = []
        pos = row = done = 0  # row `row` starts at raw[pos]; raw[:done] is in pieces
        for j, value in zip(at, values):
            for _ in range(j - row):
                pos = raw.index(b"\n", pos) + 1 if text else raw.index(b" ", pos) + 1 + vector
            start = raw.index(b" ", pos) + 1
            end = raw.index(b"\n", start) if text else start + vector
            pieces += (view[done:start], value)
            done, row = end, j + 1
            pos = end + 1 if text else end
        pieces.append(view[done:])
        return pieces

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> BlockFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextmanager
def errors_after(first: Iterator):
    """A block whose ``ValueError`` or ``OSError`` is raised once ``first``,
    such as a file's :meth:`BlockFile.blocks`, has been read to its end, so
    that an error of ``first`` comes before it: a caller that reads its
    embedding file after other input still reports the file's errors
    first, as if it had been loaded before anything else."""
    try:
        yield
    except (ValueError, OSError):
        for _ in first:
            pass
        raise

