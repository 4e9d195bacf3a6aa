"""Pytest hooks: print one verdict line per acceptance criterion, the
Hypothesis profile every property test runs under, and fixtures that run
code with the compiled kernel unavailable."""
from __future__ import annotations

import shlex
import shutil
import sysconfig

import pytest

import _report
from _constructions import disable_kernel
from classvec import _kernel

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomized: every run draws the same examples, so the suite stays
    # deterministic; no example database is written to the checkout
    settings.register_profile(
        "classvec",
        derandomize=True,
        deadline=None,
        max_examples=200,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("classvec")


@pytest.fixture()
def no_kernel(monkeypatch):
    """Run as on a machine where the kernel library cannot be built."""
    disable_kernel(monkeypatch)


@pytest.fixture(params=["kernel", "no_kernel"])
def kernel_or_not(request, monkeypatch):
    """Run once with the compiled kernel and once with the Python code."""
    if request.param == "no_kernel":
        disable_kernel(monkeypatch)


@pytest.fixture()
def kernel_library():
    """The opened kernel library; skips where no C compiler is installed."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip("no C compiler: only the reference paths can run")
    lib = _kernel.library()
    assert lib is not None, "a C compiler is present but the kernel did not load"
    return lib


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    tr.section("acceptance criteria")
    for criterion, name, ok, detail in sorted(_report.RESULTS):
        line = f"[acceptance {criterion}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        tr.write_line(line)
    exercised = {r[0] for r in _report.RESULTS}
    missing = sorted(set(_report.CRITERIA) - exercised)
    if missing:
        tr.write_line(
            "criteria not exercised this run: "
            + ", ".join(str(c) for c in missing)
        )
