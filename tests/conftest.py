import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

_acceptance_results = {}


def traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), the peak bytes tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    out = yield
    rep = out.get_result()
    if rep.when != "call":
        return
    m = re.match(r"test_criterion_(\d+)", item.name)
    if m and item.fspath.basename == "test_acceptance.py":
        num = int(m.group(1))
        descs = getattr(item.module, "CRITERIA", {})
        _acceptance_results[num] = (rep.outcome, descs.get(num, ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_acceptance_results):
        outcome, desc = _acceptance_results[num]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line("ACCEPTANCE %2d: %s  %s" % (num, status, desc))
