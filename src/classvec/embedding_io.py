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
time into one block of rows that every block reuses, records each block's
tokens and yields them with its rows. A load collects that stream: it
copies the rows it keeps out of each block into its matrix, so it holds
the matrix plus about one block of input, never the whole file. The
reader's record holds the tokens read, to find a repeat; a load then
numbers the tokens it kept as the set's index. :func:`load_rows` is a
load that keeps the rows of some tokens. :class:`BlockFile` gives the
stream itself, for a caller that compares two files block by block, or
reads one twice, and never needs a matrix; a file read twice is checked,
block by block, to hold the tokens and rows of its first read.
:func:`errors_after` drains a stream before another error, so that a
file's own errors come first.

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

from contextlib import contextmanager
from functools import partial
from itertools import repeat
from typing import BinaryIO, Callable, Collection, Iterator

import numpy as np

from . import _kernel
from ._names import FORMATS

BLOCK_ROWS = 256

# Bytes a word2vec numeral may hold: digits, sign, point, exponent and the
# letters of inf, infinity and nan. float() would also take '1_0', padding
# whitespace and non-ASCII digits; no word2vec writer emits those.
_NUMERAL_BYTES = b"0123456789+-.eEinfatyINFATY"

# Records the tokens a reader reads, block by block: add(tokens) accepts a
# block's tokens, or rejects them with False if one of them repeats a
# recorded token or another of them. A rejected call records nothing. The
# reader yields a block only after its record accepted the block's tokens;
# for a block that fails, it may call the record again token by token, to
# name the first bad row, and then raises.
Record = Callable[[list[str]], bool]


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates its declared format."""


class EmbeddingChangedError(ValueError):
    """Raised when an embedding file read again no longer holds what its
    first read found."""


class EmbeddingSet:
    """An immutable vocabulary-indexed matrix of word vectors.

    Vectors are stored as 32-bit floats; ``matrix`` is made read-only so a
    loaded set can be shared across threads. Tokens are unique, non-empty,
    contain no whitespace and encode as UTF-8 (both file formats require
    this).
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
        if len(index) != len(words) or not all(
                writable(words[i:i + BLOCK_ROWS]) for i in blocks):
            seen: set[str] = set()
            for i, w in enumerate(words):
                if not writable([w]):
                    if w.split() == [w]:
                        raise ValueError(f"token at row {i} does not encode as UTF-8: {w!r}")
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

    def blocks(self, add: Record | None = None
               ) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and rows of each block of ``BLOCK_ROWS`` rows, in
        order, as the writers take them. ``add``, if given, records each
        block's tokens before the block is yielded, as
        :meth:`BlockFile.blocks` does."""
        for start in range(0, len(self), BLOCK_ROWS):
            words = self.words[start:start + BLOCK_ROWS]
            if add is not None and not add(words):
                raise ValueError(f"a token of rows {start}+ is recorded already")
            yield words, self.matrix[start:start + BLOCK_ROWS]


def writable(tokens: list[str]) -> bool:
    """Whether both file formats can hold every token of ``tokens``: each
    non-empty, without whitespace and encodable as UTF-8 (a lone surrogate
    such as ``'\\ud800'`` is not). One join, split and encode checks them
    all."""
    joined = " ".join(tokens)
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError:
        return False
    # str.split() drops empty tokens and splits at exactly the characters
    # str.isspace() accepts
    return joined.split() == tokens


# Values a header may declare: numpy cannot shape a float32 array of more
_MAX_VALUES = np.iinfo(np.intp).max // 4
# Bytes a header line may take, so that a file without a newline is not read whole
_HEADER_BYTES = 4096


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


def _add_new(index: dict, tokens: list[str]) -> bool:
    """Add ``tokens`` to ``index``, as keys without values; False, adding
    nothing, if one repeats a token of ``index`` or of ``tokens``. A
    :data:`Record` once ``index`` is bound."""
    size = len(index)
    if index.keys().isdisjoint(tokens):
        index.update(zip(tokens, repeat(None)))
        if len(index) == size + len(tokens):
            return True
        for token in tokens:  # a repeat within tokens: take them out again
            index.pop(token, None)
    return False


def _token_error(token: bytes, add: Record) -> str | None:
    """What is wrong with a row's token, or None after recording it."""
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
    if not add([word]):
        return f"duplicate token {word!r}"
    return None


def _add_words(add: Record, joined: bytes) -> list[str] | None:
    """Decode a block's tokens, joined by single spaces, and record them;
    None, recording nothing, if any of them is empty, holds whitespace, is
    not UTF-8 or repeats (:func:`_token_error` says which)."""
    try:
        text = joined.decode("utf-8")
    except UnicodeDecodeError:
        return None
    block = text.split(" ")
    # str.split() drops empty tokens and splits at every whitespace character
    if text.split() != block or not add(block):
        return None
    return block


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
    m: int, rows: int, add: Record,
) -> tuple[list[str], np.ndarray, int]:
    """The Python block of up to ``rows`` text rows, row ``row`` on, at the
    start of ``data``: its tokens, recorded through ``add``, its values and
    the bytes it takes, or the error a row-by-row reader reports first;
    ``more()`` reads more of the stream into ``data``."""
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
            block = _add_words(add, b" ".join([p[0] for p in parts]))
            if block is not None:
                return block, values, end
    # a wrong row count outranks any row's error, as a whole-file reader
    # would find it first
    rows = row + len(parts) + _lines_after(data, end, more)
    if rows != n:
        raise _row_count_error(n, rows)
    # the first bad line; add has recorded the rows before it
    for row, (token, space, numerals) in enumerate(parts, row):
        lineno = row + 2  # after the header, counted from 1
        fields = numerals.count(b" ") + 2 if space else 1
        if fields != m + 1:
            raise EmbeddingFormatError(
                f"line {lineno}: expected {m + 1} space-separated fields, "
                f"got {fields}"
            )
        problem = _token_error(token, add)
        if problem is None:
            parsed = parse_numerals([numerals], m)
            if parsed is None:
                problem = "malformed value"
            elif not np.isfinite(_to_float32(parsed)).all():
                problem = "non-finite value"
        if problem is not None:
            raise EmbeddingFormatError(f"line {lineno}: {problem}")
    raise RuntimeError("a text block failed its checks but none of its lines did")


def load_text(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec text format from a binary stream."""
    return _collect(source, "text")


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
    # the kernel formats every block into this one buffer
    buffer = np.empty(BLOCK_ROWS * emb.dim * _kernel.FORMAT_BYTES, dtype=np.uint8)
    for words, block in emb.blocks():
        block = np.ascontiguousarray(block)
        text, ends = _kernel.format_rows(block, buffer) or (b"", [-1] * len(block))
        # token, space, numerals, newline per row: tokens hold no whitespace,
        # so one encode and split gives every token's bytes
        parts = [b"", b" ", b"", b"\n"] * len(words)
        parts[0::4] = " ".join(words).encode("utf-8").split(b" ")
        begin = 0
        for i, end in enumerate(ends):
            if end < 0:
                parts[4 * i + 2] = (row_format % tuple(block[i].tolist())).encode("ascii")
            else:
                parts[4 * i + 2] = text[begin:end]
                begin = end
        sink.write(b"".join(parts))


def _binary_block(
    data: bytearray, more: Callable[[], bool], base: int, row: int, n: int,
    m: int, rows: int, add: Record,
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
            block = _add_words(add, b" ".join(tokens))
            if block is not None:
                return block, vectors, pos
    # the first bad row: rows are checked token first, then vector, and a
    # truncation comes after the checks of every row read in full before it
    for r, token in enumerate(tokens):
        if (problem := _token_error(token, add)) is not None:
            raise EmbeddingFormatError(f"byte {base + starts[r]}: {problem}")
        if r < len(vec_at) and not np.isfinite(
            np.frombuffer(data, "<f4", m, vec_at[r])
        ).all():
            raise EmbeddingFormatError(f"byte {base + vec_at[r]}: non-finite value")
    if failure is None:
        raise RuntimeError("a binary block failed its checks but none of its rows did")
    raise EmbeddingFormatError(failure)


def load_binary(source: BinaryIO) -> EmbeddingSet:
    """Parse the word2vec binary format from a binary stream."""
    return _collect(source, "bin")


def _read_rows(
    source: BinaryIO, fmt: str, base: int, n: int, m: int, add: Record,
) -> Iterator[tuple[list[str], np.ndarray]]:
    """Read the ``n`` rows of ``m`` values of a ``fmt`` stream that start at
    file offset ``base``, about one block at a time, into one block of rows
    that each block overwrites; for each block, record its tokens through
    ``add`` and yield them with its rows."""
    text = fmt == "text"
    # a chunk holds BLOCK_ROWS rows of tokens of up to 15 bytes (text: and
    # of the widest '%.9g' numerals)
    scan, parse, size = (
        (_kernel.scan_text, _text_block, BLOCK_ROWS * (_kernel.FORMAT_BYTES * m + 16))
        if text else (_kernel.scan_binary, _binary_block, BLOCK_ROWS * (4 * m + 16))
    )
    data = bytearray()  # the stream from file offset base, not yet parsed

    def more(count: int = size) -> bool:
        """Read ``count`` more bytes of the stream into ``data``, or as many
        as are left; False if none are. At the end of the stream, an
        unterminated last text line gets its newline."""
        held = len(data)
        while len(data) < held + count:
            got = source.read(held + count - len(data))
            if not got and text and data and not data.endswith(b"\n"):
                got = b"\n"
            if not got:
                break
            data.extend(got)
        return len(data) > held

    buffer = np.empty((min(BLOCK_ROWS, n), m), dtype=np.float32)
    row = 0
    while row < n:
        out = buffer[:min(BLOCK_ROWS, n - row)]
        more(size - len(data))  # a full chunk, so that a scan takes BLOCK_ROWS rows
        scanned = scan(data, out)
        if scanned and scanned[0] and (block := _add_words(add, scanned[2])):
            used = scanned[1]
        elif scanned and not scanned[0] and not scanned[3] and more(len(data)):
            continue  # the row runs past the bytes read: read as much again
        else:
            # the Python block, from the first row the scanner did not take;
            # its tokens are recorded last, so that a failed block records none
            block, values, used = parse(data, more, base, row, n, m, len(out), add)
            out[:len(block)] = values
        del data[:used]
        base += used
        row += len(block)
        yield block, out[:len(block)]
    if text:
        extra = _lines_after(data, 0, more)
        if extra:
            raise _row_count_error(n, n + extra)
    elif data or more():
        raise EmbeddingFormatError(f"byte {base}: trailing data after last vector")


def _collect(source: BinaryIO, fmt: str, tokens: Collection[str] | None = None
             ) -> EmbeddingSet:
    """The set of the rows of ``tokens`` in a ``fmt`` stream, in file order,
    or of every row if ``tokens`` is None, copied out of the reader's
    blocks; the reader has checked every token and value."""
    n, m, what, base = _read_header(source, fmt)
    # pages of rows that are never kept are never touched
    matrix = _allocate(n if tokens is None else min(n, len(tokens)), m, what)
    index: dict = {}  # the tokens read, for repeats; then the set's index
    words: list[str] = []
    for block_tokens, block in _read_rows(source, fmt, base, n, m, partial(_add_new, index)):
        keep = slice(None) if tokens is None else np.flatnonzero(np.fromiter(
            map(tokens.__contains__, block_tokens), bool, len(block_tokens)))
        start = len(words)
        words.extend(block_tokens if tokens is None
                      else map(block_tokens.__getitem__, keep.tolist()))
        matrix[start:len(words)] = block[keep]
    if tokens is not None:  # the tokens read are freed before the index is built
        index.clear()
    index.update(zip(words, range(len(words))))
    emb = EmbeddingSet.__new__(EmbeddingSet)
    emb.words, emb.matrix, emb.index = words, matrix[:len(words)], index
    emb.matrix.setflags(write=False)
    return emb


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


def _open(path: str, fmt: str) -> BinaryIO:
    """``path`` opened for reading, once ``fmt`` is known to be a format."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r}")
    return open(path, "rb")


def load_file(path: str, fmt: str) -> EmbeddingSet:
    """Load embeddings from ``path`` in the explicitly named format."""
    with _open(path, fmt) as f:
        return _collect(f, fmt)


class BlockFile:
    """An embedding file read as a stream of blocks, never as a whole.

    Opening it reads and checks the header; :meth:`blocks` yields the
    reader's blocks themselves, with the checks and errors of
    :func:`load_file`: one block of ``BLOCK_ROWS`` rows that each block
    overwrites. (A header whose matrix numpy could shape but this machine
    could not allocate fails a load, not a stream, which allocates no
    matrix.) It has the ``len``, ``dim`` and ``blocks()`` that the
    writers take. Close it, or use it as a context manager.
    """

    def __init__(self, path: str, fmt: str):
        self._file = _open(path, fmt)
        self._fmt = fmt
        # the hashes of the tokens and of the rows of each block, by its
        # first row, kept by the first read without a record that completes
        self._hashes: dict[int, tuple[int, int]] | None = None
        try:
            self._rows, self.dim, _, self._base = _read_header(self._file, fmt)
        except BaseException:
            self._file.close()
            raise

    def __len__(self) -> int:
        return self._rows

    def blocks(self, add: Record | None = None
               ) -> Iterator[tuple[list[str], np.ndarray]]:
        """The tokens and rows of each block, in order; the rows are valid
        until the next block is read. Each block's tokens are recorded
        through ``add`` before it is yielded, and a token that ``add`` finds
        recorded already is a duplicate; a failed check raises
        :class:`EmbeddingFormatError`, as a load does.

        Without ``add``, the first read checks the tokens for repeats in a
        token set of its own and keeps only two 64-bit hashes of each block,
        of its tokens and of its rows, once it completes; every later read
        checks each block against them as it arrives and raises
        :class:`EmbeddingChangedError` at the first block whose tokens or
        rows differ, so that a file read twice yields the same tokens and
        rows twice. A read with ``add`` hashes and checks nothing."""
        own, first = add is None, self._hashes is None
        if own:
            # a read again matches a first read that found no repeats
            add = partial(_add_new, {}) if first else lambda tokens: True
        kept: dict[int, tuple[int, int]] = {}
        row = 0
        self._file.seek(self._base)
        for tokens, block in _read_rows(self._file, self._fmt, self._base, len(self),
                                        self.dim, add):
            if own:
                # hashed before it is yielded: a caller may write into the block
                found = hash(tuple(tokens)), hash(block.tobytes())
                if first:
                    kept[row] = found
                elif (before := self._hashes.get(row, (None, None))) != found:
                    raise EmbeddingChangedError(
                        f"the file changed after it was first read: rows {row + 1} to "
                        f"{row + len(tokens)} do not hold the "
                        f"{'tokens' if before[0] != found[0] else 'vectors'} read there before"
                    )
            row += len(tokens)
            yield tokens, block
        if own and first:
            self._hashes = kept

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


def load_rows(path: str, fmt: str, tokens: Collection[str]) -> EmbeddingSet:
    """The rows of ``tokens`` in the ``fmt`` file at ``path``: the set of
    those the file has, in file order. The file is read once, as a load
    reads it, with every check and error of :func:`load_file`, and only the
    kept rows are copied out of the reader's block, never the file's
    matrix; a token the file lacks is absent from the set as it is from
    the file."""
    with _open(path, fmt) as f:
        return _collect(f, fmt, tokens)
