"""Build and bind ``_kernel.c``: the compiled label pass and the fast
paths of the word2vec text writer and reader.

The shared library is opened once per process, on the first ``finetune``,
text load or text save, and shared by all three. It is compiled on first
use with the C compiler Python was built with (``sysconfig``'s ``CC``,
else ``cc``) and fixed flags, and cached as
``__pycache__/_kernel-<digest>.so`` next to the source, keyed by the
sha256 of source and flags. It is written through a temporary file and
an atomic rename, so concurrent processes may build it at the same time.
Every entry point takes plain addresses; the wrappers check the dtype,
layout and writeability of each array before the call.
"""
from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)
COMPILE_TIMEOUT_S = 120

_P, _I = ctypes.c_void_p, ctypes.c_int64
# the parameter lists of the entry points in _kernel.c
_SIGNATURES = {
    "label_pass": [
        _P, _I, _P,             # input, n_input, trainable
        _P, _I, _P,             # output, n_output, noise
        _P, _I, _I,             # classes, n_classes, label
        _P, _P, _I,             # in_idx, out_idx, n
        _P, _P,                 # alphas, uniforms
        _I, _I, _I, _I,         # dim, window, negative, attempts
        _P, _P, _P,             # rows, scratch, loss
    ],
    "format_rows": [_P, _I, _I, _P, _P],    # values, rows, m, out, ends
    "parse_rows": [_P, _I, _I, _I, _P],     # data, len, n, m, out
}
# bytes format_rows may write per value: 15 for '-0.000123456789' or
# '-1.23456789e-05', plus a separator
FORMAT_BYTES = 16

_F64, _I64, _U8, _F32 = (np.dtype(t) for t in (np.float64, np.int64, np.uint8, np.float32))
_UNOPENED = object()
_library: ctypes.CDLL | None | object = _UNOPENED


def library_path() -> Path:
    """Where the library for the current source and flags is cached."""
    digest = hashlib.sha256(
        SOURCE.read_bytes() + " ".join(FLAGS + LIBS).encode()
    ).hexdigest()
    return SOURCE.parent / "__pycache__" / f"_kernel-{digest[:16]}.so"


def compile_library(target: Path) -> None:
    """Compile ``_kernel.c`` to ``target``; raises OSError on failure."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-kernel-", suffix=".so")
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
            capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise OSError(f"{cc[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    except subprocess.TimeoutExpired as e:
        raise OSError(f"{cc[0]} ran over {COMPILE_TIMEOUT_S} s") from e
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def open_library() -> ctypes.CDLL:
    """Load the cached library, compiling it first if it is missing."""
    path = library_path()
    if not path.exists():
        compile_library(path)
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
                "compiled kernel unavailable, training and text I/O run the "
                "numpy and Python reference paths: %s", e,
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


def load() -> Callable | None:
    """The compiled label pass, or None if the library is unavailable.

    The returned function has the signature of ``trainer._reference_pass``:
    ``(state, in_idx, out_idx, label_id, alphas, uniforms)`` and returns
    ``(summed loss, positions short of negatives)``.
    """
    lib = library()
    if lib is None:
        return None
    fn = lib.label_pass

    def label_pass(state, in_idx, out_idx, label_id, alphas, uniforms):
        inp, out, cls = state.input_matrix, state.output_matrix, state.class_vectors
        dim, negative = inp.shape[1], state.cfg.negative
        n, attempts = len(in_idx), uniforms.shape[-1]
        # the C side trusts these sizes; index ranges it checks itself
        if not (out.shape[1] == dim and cls.shape[1] == dim
                and len(state.trainable) == len(inp)
                and len(state.noise_table) == len(out) > 0
                and len(out_idx) == len(alphas) == n
                and uniforms.shape == (n, negative, attempts)):
            raise ValueError("label pass arrays disagree in shape")
        rows = np.empty(1 + negative, dtype=np.int64)
        scratch = np.empty(1 + negative + 2 * dim, dtype=np.float64)
        loss = np.zeros(1)
        shortfall = fn(
            _address(inp, _F64, write=True), len(inp),
            _address(state.trainable.view(np.uint8), _U8),
            _address(out, _F64, write=True), len(out),
            _address(state.noise_table, _F64),
            _address(cls, _F64, write=True), len(cls), label_id,
            _address(in_idx, _I64), _address(out_idx, _I64), n,
            _address(alphas, _F64), _address(uniforms, _F64),
            dim, state.cfg.window, negative, attempts,
            rows.ctypes.data, scratch.ctypes.data, loss.ctypes.data,
        )
        if shortfall < 0:
            raise IndexError("label pass index out of range")
        return float(loss[0]), shortfall

    return label_pass


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


def parse_rows(data: bytes, n: int, m: int) -> np.ndarray | None:
    """Parse ``n`` rows of ``m`` single-space-separated numerals, each row
    ending in a newline, into float64; None if the library is unavailable
    or it declines any row (the caller parses the block itself)."""
    lib = library()
    if lib is None:
        return None
    values = np.empty((n, m), dtype=np.float64)
    if lib.parse_rows(data, len(data), n, m, values.ctypes.data) != -1:
        return None
    return values
