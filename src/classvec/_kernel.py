"""Build and bind the compiled label pass in ``_kernel.c``.

The shared library is compiled on first use with the C compiler Python
was built with (``sysconfig``'s ``CC``, else ``cc``) and fixed flags, and
cached as ``__pycache__/_kernel-<digest>.so`` next to the source, keyed by
the sha256 of source and flags. It is written through a temporary file and
an atomic rename, so concurrent processes may build it at the same time.
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

_F64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_F64_OUT = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_I64_OUT = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
_U8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
_I = ctypes.c_int64
# the parameter list of label_pass() in _kernel.c
_ARGTYPES = [
    _F64_OUT, _I, _U8,              # input, n_input, trainable
    _F64_OUT, _I, _F64,             # output, n_output, noise
    _F64_OUT, _I, _I,               # classes, n_classes, label
    _I64, _I64, _I,                 # in_idx, out_idx, n
    _F64, _F64,                     # alphas, uniforms
    _I, _I, _I, _I,                 # dim, window, negative, attempts
    _I64_OUT, _F64_OUT,             # rows, scratch
    ctypes.POINTER(ctypes.c_double),  # loss
]


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


def load() -> Callable | None:
    """The compiled label pass, or None (with one warning) if it cannot be
    built or loaded on this machine.

    The returned function has the signature of ``trainer._reference_pass``:
    ``(state, in_idx, out_idx, label_id, alphas, uniforms)`` and returns
    ``(summed loss, positions short of negatives)``.
    """
    try:
        fn = open_library().label_pass
    except OSError as e:  # no compiler, a failed build, or a failed dlopen
        logger.warning(
            "compiled label pass unavailable, training with the numpy "
            "reference pass: %s", e,
        )
        return None
    fn.argtypes = _ARGTYPES
    fn.restype = ctypes.c_int64

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
        loss = ctypes.c_double(0.0)
        shortfall = fn(
            inp, len(inp), state.trainable.view(np.uint8),
            out, len(out), state.noise_table,
            cls, len(cls), label_id,
            in_idx, out_idx, n,
            alphas, uniforms,
            dim, state.cfg.window, negative, attempts,
            rows, scratch, ctypes.byref(loss),
        )
        if shortfall < 0:
            raise IndexError("label pass index out of range")
        return loss.value, shortfall

    return label_pass
