"""Pytest hooks: print one verdict line per acceptance criterion, and the
Hypothesis profile every property test runs under."""
from __future__ import annotations

import _report

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
