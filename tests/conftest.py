"""Shared fixtures: the acceptance-criteria summary."""

import contextlib
import time

import pytest


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    """Context manager that records one PASS/FAIL line per acceptance check."""

    @contextlib.contextmanager
    def run(num, summary, budget):
        t0 = time.perf_counter()
        status = "FAIL"
        try:
            yield
            dt = time.perf_counter() - t0
            assert dt <= budget, (
                f"criterion {num} exceeded its runtime budget: "
                f"{dt:.1f}s > {budget:.0f}s"
            )
            status = "PASS"
        finally:
            dt = time.perf_counter() - t0
            request.config._criterion_lines.append(
                (num, f"criterion {num} ({summary}): {status} "
                      f"[{dt:.1f}s, budget {budget:.0f}s]")
            )

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)
