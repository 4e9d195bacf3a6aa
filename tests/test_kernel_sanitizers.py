"""Memory and undefined-behaviour checks of ``_kernel.c``.

The kernel is built a second time, into the test's temporary directory,
with AddressSanitizer and UndefinedBehaviorSanitizer and its own flags
(``_kernel.FLAGS`` stays as it is). A child process with the sanitizer
runtimes preloaded then runs every entry point through
``tests/_sanitizer_child.py``. A control run makes one deliberate
out-of-bounds write, to show that the sanitizer is live.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from classvec import _kernel

SANITIZER_FLAGS = ("-O1", "-g", "-fsanitize=address,undefined",
                   "-fno-sanitize-recover=undefined", "-fno-omit-frame-pointer",
                   "-fPIC", "-shared", "-ffp-contract=off")
CHILD = Path(__file__).with_name("_sanitizer_child.py")


def _runtime(name: str) -> str | None:
    """The path gcc gives for runtime library ``name``, if it exists."""
    path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                          text=True, timeout=60).stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """The sanitizer build and the environment to run it in."""
    if shutil.which("gcc") is None:
        pytest.skip("needs gcc")
    runtimes = [_runtime("libasan.so"), _runtime("libubsan.so")]
    if None in runtimes:
        pytest.skip("gcc has no sanitizer runtime libraries here")
    target = tmp_path_factory.mktemp("sanitized") / "kernel.so"
    build = subprocess.run(
        ["gcc", *SANITIZER_FLAGS, "-o", str(target), str(_kernel.SOURCE), *_kernel.LIBS],
        capture_output=True, text=True, timeout=_kernel.COMPILE_TIMEOUT_S,
    )
    assert build.returncode == 0, build.stderr
    src = Path(_kernel.__file__).parents[1]
    env = dict(
        os.environ,
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="print_stacktrace=1",
        PYTHONMALLOC="malloc",  # Python's own buffers get redzones too
        PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
    )
    return target, env


def _child(sanitized, mode: str) -> subprocess.CompletedProcess:
    target, env = sanitized
    return subprocess.run([sys.executable, str(CHILD), str(target), mode],
                          capture_output=True, text=True, env=env, timeout=600)


def test_every_entry_point_runs_clean_under_the_sanitizers(sanitized):
    pytest.importorskip("hypothesis")
    proc = _child(sanitized, "run")
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "all entry points ran" in proc.stdout
    assert "runtime error" not in proc.stderr  # UBSan's report line


def test_an_out_of_bounds_write_is_reported(sanitized):
    proc = _child(sanitized, "control")
    assert proc.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in proc.stderr
