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
"""
from __future__ import annotations

import ctypes
import logging
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

_F64, _I64, _F32 = (np.dtype(t) for t in (np.float64, np.int64, np.float32))
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
        dim, state.cfg.window, negative, NS_RESAMPLE_ATTEMPTS,
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


def format_rows(block: np.ndarray) -> tuple[str, list[int]] | None:
    """Format a float32 block as rows of '%.9g' numerals, or None if the
    library is unavailable.

    Returns the text of the rows that came out, back to back, and per row
    its end offset in that text, or -1 for a row holding a value the
    kernel declines (the caller formats that row itself).
    """
    lib = library()
    if lib is None:
        return None
    rows, m = block.shape
    out = np.empty(rows * m * FORMAT_BYTES, dtype=np.uint8)
    ends = np.empty(rows, dtype=np.int64)
    size = lib.format_rows(
        _address(block, _F32), rows, m, out.ctypes.data, ends.ctypes.data
    )
    return out[:size].tobytes().decode("ascii"), ends.tolist()


def _scan(name: str, data: bytes | bytearray, start: int, out: np.ndarray):
    """Call scanner ``name`` on ``data[start:]``; see :func:`scan_text`."""
    lib = library()
    if lib is None:
        return None
    rows, m = out.shape
    buffer = np.frombuffer(data, dtype=np.uint8)
    tokens = np.empty(len(buffer) - start, dtype=np.uint8)
    state = np.empty(3, dtype=np.int64)
    scanned = getattr(lib, name)(
        buffer.ctypes.data + start, len(tokens), rows, m,
        _address(out, _F32, write=True), tokens.ctypes.data, state.ctypes.data,
    )
    end, size, declined = state.tolist()
    return scanned, start + end, tokens[:size].tobytes(), bool(declined)


def scan_text(data: bytes, start: int, out: np.ndarray) -> tuple[int, int, bytes, bool] | None:
    """Scan word2vec text rows from ``data[start:]`` into the rows of ``out``
    (float32, one row per text row, at most ``len(out)`` of them); None if
    the library is unavailable.

    Returns ``(rows, end, tokens, declined)``: the rows scanned, the offset
    in ``data`` after them, their tokens joined by single spaces, and
    whether the scan stopped at a whole line that the kernel declines (a
    numeral outside the exact fast path, another layout). A scan also stops
    at ``len(out)`` rows and at a last line without its newline.
    """
    return _scan("scan_text", data, start, out)


def scan_binary(data: bytes | bytearray, start: int, out: np.ndarray
                ) -> tuple[int, int, bytes, bool] | None:
    """Scan word2vec binary rows from ``data[start:]`` into the rows of
    ``out``, as :func:`scan_text` does; a declined row is one whose vector
    holds a non-finite value, and a scan also stops at a row that runs
    past the end of ``data``."""
    return _scan("scan_binary", data, start, out)
