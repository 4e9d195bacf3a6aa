"""Build and bind ``_kernel.c``: the compiled trainer of label passes, the
linear probe's SGD epoch, the fast path of the word2vec text writer and
the row scanners of both word2vec readers.

The shared library is opened once per process, on the first ``finetune``,
``train_classifier``, embedding load or text save, and shared by all of
them. It is compiled on first use with the C compiler Python was built
with (``sysconfig``'s ``CC``, else ``cc``) and fixed flags, among them
``-march=native``, and cached next to the source as
``__pycache__/_kernel-<CPU digest>-<build digest>.so``: 64-bit digests
(``zlib``'s CRC-32 and Adler-32, which numpy has loaded already) of the
host's CPU model and instruction-set flags, since the library runs only
on CPUs like the one it was built on, and of the source and flags. A
build removes the libraries of older builds for the same CPU. It is
written through a temporary file and an atomic rename, so concurrent
processes may build it at the same time.
Each entry point has a wrapper here that returns None when the library is
unavailable, so that its caller runs the Python reference; the wrappers
check each array's dtype, layout and writeability before passing its
address. ``finetune`` makes one training call per epoch, on matrices of
the corpus rows alone, one row index per position; the kernel computes
the noise draws itself, from the run's key and each draw's counter. A
reader makes one scanner call per chunk of about ``BLOCK_ROWS`` rows.

The same module holds the library's one definition of random numbers,
SplitMix64 in numpy (:func:`uniforms`), which ``noise_uniform`` in
``_kernel.c`` repeats for the negatives: every seeded draw of the
package, the negatives, the unseen rows, the class vectors and the
document and example orders, is a pure function of a key and a counter,
with one key per use derived from the seed (:func:`stream_key`); the
unseen rows and the class vectors are both :func:`seeded_rows`.
"""
from __future__ import annotations

import ctypes
import logging
import operator
import os
import platform
import zlib
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120
# attempts to draw a noise word different from the center before giving up
NS_RESAMPLE_ATTEMPTS = 8
# the streams of a seed, one per use, so that no two uses share draws:
# the unseen rows, the class vectors, the negatives' key, the document
# order of --shuffle and the probe's example order
STREAM_UNSEEN, STREAM_CLASSES, STREAM_NOISE, STREAM_SHUFFLE, STREAM_PROBE = range(5)

_P, _I, _U, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
# the parameter lists of the entry points in _kernel.c
_SIGNATURES = {
    "train_chunk": [
        _P, _P, _I, _P,         # input, output, n_rows, noise
        _P, _I,                 # classes, n_classes
        _P, _I,                 # idx, n_positions
        _P, _U, _I,             # alphas, key, first
        _P, _P, _I,             # lengths, labels, n_passes
        _I, _I, _I, _I,         # dim, window, negative, attempts
        _P, _P, _P,             # rows, scratch, loss
    ],
    "probe_epoch": [
        _P, _I, _I,             # x, n, m
        _P, _P, _I,             # labels, y, multilabel
        _P, _I,                 # order, n_order
        _P, _P, _I,             # weights, bias, k
        _D, _D, _P, _P,         # lr, l2, scratch, loss
    ],
    "format_rows": [_P, _I, _I, _P, _P],    # values, rows, m, out, ends
    # data, len, n, m, out, tokens, state
    "scan_text": [_P, _I, _I, _I, _P, _P, _P],
    "scan_binary": [_P, _I, _I, _I, _P, _P, _P],
}
# bytes format_rows may write per value: 15 for '-0.000123456789' or
# '-1.23456789e-05', plus a separator
FORMAT_BYTES = 16

_F64, _I64, _F32, _U8 = (np.dtype(t)
                          for t in (np.float64, np.int64, np.float32, np.uint8))
_UNOPENED = object()
_library: ctypes.CDLL | None | object = _UNOPENED


# the /proc/cpuinfo fields that name a CPU and its instruction sets (x86
# and ARM spellings); the first processor's are taken
_CPUINFO_KEYS = ("model name", "flags", "CPU implementer", "CPU part", "Features")


def host_cpu() -> str:
    """This host's CPU model and instruction-set flags, which -march=native
    compiles for: from /proc/cpuinfo where it has them, else the machine
    and processor names of ``platform``."""
    fields: dict[str, str] = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if not line.strip() and fields:
                    break  # the end of the first processor's block
                key, _, value = line.partition(":")
                key = key.strip()
                if key in _CPUINFO_KEYS and key not in fields:
                    fields[key] = value.strip()
    except OSError:
        pass
    if not fields:
        return f"{platform.machine()} {platform.processor()}"
    return "\n".join(f"{k}: {v}" for k, v in sorted(fields.items()))


def _digest(data: bytes) -> str:
    return f"{zlib.crc32(data):08x}{zlib.adler32(data):08x}"


def library_path() -> Path:
    """Where the library for the current source, flags and host CPU is
    cached, as ``_kernel-<CPU digest>-<source and flags digest>.so``;
    -march=native makes it specific to the CPU."""
    cpu = _digest(host_cpu().encode())
    build = _digest(SOURCE.read_bytes() + " ".join(FLAGS + LIBS).encode())
    return SOURCE.parent / "__pycache__" / f"_kernel-{cpu}-{build}.so"


def compile_library(target: Path) -> None:
    """Compile ``_kernel.c`` to ``target``; raises OSError on failure."""
    # needed only to build, so a process that finds the library cached
    # does not import them
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    target.parent.mkdir(exist_ok=True)
    # a new file in a private directory gets the compiler's mode, not 0600
    with tempfile.TemporaryDirectory(dir=target.parent, prefix=".tmp-kernel-") as tmp:
        built = os.path.join(tmp, target.name)
        try:
            proc = subprocess.run(
                [*cc, *FLAGS, "-o", built, str(SOURCE), *LIBS],
                capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as e:
            raise OSError(f"{cc[0]} ran over {COMPILE_TIMEOUT_S} s") from e
        if proc.returncode != 0:
            raise OSError(f"{cc[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        os.replace(built, target)


def open_library() -> ctypes.CDLL:
    """Load the cached library, compiling it first if it is missing. A
    build removes the libraries of older sources or flags for the same
    CPU; those built for other CPUs stay."""
    path = library_path()
    if not path.exists():
        compile_library(path)
        cpu = path.name.split("-")[1]
        for stale in path.parent.glob(f"_kernel-{cpu}-*.so"):
            if stale != path:
                stale.unlink(missing_ok=True)
    return ctypes.CDLL(str(path))


def library() -> ctypes.CDLL | None:
    """The bound library, opened once per process on first use; None, after
    one warning, if it cannot be built or loaded on this machine."""
    global _library
    if _library is _UNOPENED:
        try:
            lib = open_library()
        except OSError as e:  # no compiler, a failed build, or a failed dlopen
            logger.warning(
                "compiled kernel unavailable, training, the probe and embedding "
                "I/O run the numpy and Python reference paths: %s", e,
            )
            lib = None
        else:
            for name, argtypes in _SIGNATURES.items():
                fn = getattr(lib, name)
                fn.argtypes = argtypes
                fn.restype = ctypes.c_int64
        _library = lib
    return _library


def _address(arr: np.ndarray, dtype: np.dtype, write: bool = False) -> int:
    """The data address of ``arr``, after checking the dtype, layout and
    writeability that the C side takes for granted."""
    if arr.dtype != dtype or not arr.flags.c_contiguous or (
        write and not arr.flags.writeable
    ):
        raise ValueError(
            f"kernel argument must be a C-contiguous{' writeable' if write else ''} "
            f"{dtype} array, got {arr.dtype} with flags "
            f"c_contiguous={arr.flags.c_contiguous} writeable={arr.flags.writeable}"
        )
    return arr.ctypes.data


def train_chunk(state, chunk) -> tuple[float, int] | None:
    """Train ``chunk``'s label passes in order with the noise draws of
    ``state.key`` from position ``chunk.first`` on, as
    ``trainer._reference_chunk`` does; None if the library is unavailable.

    The input and output matrices and the noise table share their rows,
    one per corpus token, and a position's row index names all three.
    Returns ``(summed loss, positions short of negatives)``.
    """
    lib = library()
    if lib is None:
        return None
    inp, out, cls = state.input_matrix, state.output_matrix, state.class_vectors
    dim, negative = inp.shape[1], state.cfg.negative
    n, n_passes = len(chunk.idx), len(chunk.labels)
    # the C side trusts these sizes; index ranges and that the pass
    # lengths add up to the positions it checks itself
    if not (out.shape[1] == dim and cls.shape[1] == dim
            and len(inp) == len(out) == len(state.noise_table) > 0
            and len(chunk.alphas) == n and len(chunk.lengths) == n_passes):
        raise ValueError("training chunk arrays disagree in shape")
    matrices = (inp, out, cls, state.noise_table)
    if any(np.may_share_memory(a, b)
           for i, a in enumerate(matrices) for b in matrices[i + 1:]):
        raise ValueError("training matrices must not overlap")
    rows = np.empty(1 + negative, dtype=np.int64)
    scratch = np.empty(1 + negative + 2 * dim, dtype=np.float64)
    loss = np.zeros(1)
    shortfall = lib.train_chunk(
        _address(inp, _F64, write=True), _address(out, _F64, write=True), len(out),
        _address(state.noise_table, _F64),
        _address(cls, _F64, write=True), len(cls),
        _address(chunk.idx, _I64), n,
        _address(chunk.alphas, _F64), state.key, chunk.first,
        _address(chunk.lengths, _I64), _address(chunk.labels, _I64), n_passes,
        # no pass is longer than the chunk, so a wider window changes nothing,
        # and a clamped one cannot overflow int64 in C
        dim, min(state.cfg.window, n), negative, NS_RESAMPLE_ATTEMPTS,
        rows.ctypes.data, scratch.ctypes.data, loss.ctypes.data,
    )
    if shortfall < 0:
        raise IndexError("training chunk index or pass length out of range")
    return float(loss[0]), shortfall


def probe_epoch(
    x: np.ndarray, targets: np.ndarray, order: np.ndarray,
    weights: np.ndarray, bias: np.ndarray, lr: float, l2: float,
) -> float | None:
    """One epoch of the probe's per-example SGD, in place on ``weights``
    (m x K) and ``bias`` (K), visiting the rows of ``x`` (n x m) in
    ``order``; None if the library is unavailable.

    ``targets`` holds a class index per row (int64, exclusive mode) or a
    0/1 row over the classes (float64 n x K, multilabel mode). Returns the
    epoch's summed pre-update loss, the sum of ``loss_and_grads`` losses.
    """
    lib = library()
    if lib is None:
        return None
    n, m = x.shape
    k = len(bias)
    multilabel = targets.ndim == 2
    # the C side trusts these sizes; index ranges it checks itself
    if not (weights.shape == (m, k) and len(targets) == n
            and (not multilabel or targets.shape == (n, k))):
        raise ValueError("probe arrays disagree in shape")
    labels = y = None  # NULL for the mode's unused argument
    if multilabel:
        y = _address(targets, _F64)
    else:
        labels = _address(targets, _I64)
    scratch = np.empty(k, dtype=np.float64)
    loss = np.zeros(1)
    status = lib.probe_epoch(
        _address(x, _F64), n, m, labels, y, int(multilabel),
        _address(order, _I64), len(order),
        _address(weights, _F64, write=True), _address(bias, _F64, write=True), k,
        lr, l2, scratch.ctypes.data, loss.ctypes.data,
    )
    if status < 0:
        raise IndexError("probe example or class index out of range")
    return float(loss[0])


def format_rows(block: np.ndarray, out: np.ndarray | None = None
                ) -> tuple[memoryview, list[int]] | None:
    """Format a float32 block as rows of '%.9g' numerals, or None if the
    library is unavailable.

    Returns the ASCII bytes of the rows that came out, back to back, and
    per row its end offset in them, or -1 for a row holding a value the
    kernel declines (the caller formats that row itself). The bytes are a
    view of ``out``, a uint8 buffer a caller may reuse from block to block
    (a new one where it is None or too small), valid until ``out`` is
    written again.
    """
    lib = library()
    if lib is None:
        return None
    rows, m = block.shape
    if out is None or len(out) < rows * m * FORMAT_BYTES:
        out = np.empty(rows * m * FORMAT_BYTES, dtype=np.uint8)
    ends = np.empty(rows, dtype=np.int64)
    size = lib.format_rows(
        _address(block, _F32), rows, m, _address(out, _U8, write=True),
        ends.ctypes.data,
    )
    return memoryview(out)[:size], ends.tolist()


def _scan(name: str, data: bytes | bytearray, out: np.ndarray):
    """Call scanner ``name`` on ``data``; see :func:`scan_text`."""
    lib = library()
    if lib is None:
        return None
    rows, m = out.shape
    buffer = np.frombuffer(data, dtype=np.uint8)
    tokens = np.empty(len(buffer), dtype=np.uint8)
    state = np.empty(3, dtype=np.int64)
    scanned = getattr(lib, name)(
        buffer.ctypes.data, len(buffer), rows, m,
        _address(out, _F32, write=True), tokens.ctypes.data, state.ctypes.data,
    )
    end, size, declined = state.tolist()
    return scanned, end, tokens[:size].tobytes(), bool(declined)


def scan_text(data: bytes | bytearray, out: np.ndarray
              ) -> tuple[int, int, bytes, bool] | None:
    """Scan word2vec text rows from the start of ``data`` into the rows of
    ``out`` (float32, one row per text row, at most ``len(out)`` of them);
    None if the library is unavailable.

    Returns ``(rows, end, tokens, declined)``: the rows scanned, the offset
    in ``data`` after them, their tokens joined by single spaces, and
    whether the scan stopped at a whole line that the kernel declines (a
    numeral outside the exact fast path, another layout). A scan also stops
    at ``len(out)`` rows and at a last line without its newline.
    """
    return _scan("scan_text", data, out)


def scan_binary(data: bytes | bytearray, out: np.ndarray
                ) -> tuple[int, int, bytes, bool] | None:
    """Scan word2vec binary rows from the start of ``data`` into the rows
    of ``out``, as :func:`scan_text` does; a declined row is one whose
    vector holds a non-finite value, and a scan also stops at a row that
    runs past the end of ``data``."""
    return _scan("scan_binary", data, out)


def splitmix64(key: int, counters: np.ndarray) -> np.ndarray:
    """Outputs ``counters`` (uint64 array) of SplitMix64 (Steele, Lea and
    Flood, OOPSLA 2014) seeded with ``key``: the finaliser of
    ``key + (counter + 1) * 0x9E3779B97F4A7C15``."""
    # array arithmetic in uint64 wraps mod 2^64, as in C
    z = np.uint64(key) + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniforms(key: int, counters: np.ndarray) -> np.ndarray:
    """The values in [0, 1) of draws ``counters`` (uint64) under ``key``:
    the top 53 bits of :func:`splitmix64`, which scale exactly to a double.
    ``noise_uniform`` in ``_kernel.c`` is the same function."""
    return (splitmix64(key, counters) >> np.uint64(11)) * 2.0**-53


def seeded_rows(seed: int, stream: int, rows: int, dim: int) -> np.ndarray:
    """``rows`` float64 rows of ``dim`` values uniform on [-0.5/dim,
    +0.5/dim), row by row from counter 0 of stream ``stream`` of ``seed``:
    the seeded rows of the unseen words and of the class vectors."""
    counters = np.arange(rows * dim, dtype=np.uint64).reshape(rows, dim)
    return (uniforms(stream_key(seed, stream), counters) - 0.5) / dim


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` can seed SplitMix64: an integer in
    [0, 2**64). Anything ``operator.index`` refuses (a float such as 1.5,
    which SplitMix64 would truncate) is not an integer."""
    try:
        operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def stream_key(seed: int, stream: int) -> int:
    """The key of stream ``stream`` (one of the ``STREAM_*`` numbers) of
    ``seed``: output ``stream`` of SplitMix64 seeded with ``seed``."""
    check_seed(seed)
    return int(splitmix64(seed, np.array([stream], dtype=np.uint64))[0])


def permutation(key: int, n: int, draw: int) -> np.ndarray:
    """Permutation ``draw`` of ``range(n)`` under ``key`` (int64): the
    stable argsort of the uniforms of counters ``draw * n`` to
    ``draw * n + n - 1``."""
    counters = np.arange(draw * n, (draw + 1) * n, dtype=np.uint64)
    return np.argsort(uniforms(key, counters), kind="stable")
