"""Shared pytest configuration: a time limit on every test, and the
acceptance criteria report."""

import faulthandler
import re
import signal
import threading

import pytest

# Seconds a test may run; the slowest takes under 3.  A fault that keeps a
# spectrum's row alive makes an uncapped oracle build run without end, and
# one that keeps its rows grows by about 250 MB a second, so a limit of a
# minute would let it fill most machines' memory before it fired.
TIME_LIMIT = 15.0


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT.  A BaseException, so that code under
    test that catches Exception, or a Hypothesis test that would shrink
    the failure by running more examples, cannot hold it back."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    # SIGALRM reaches the main thread only, and only where setitimer exists
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past the time limit of {TIME_LIMIT:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    # the backstop for a hang the handler cannot interrupt, such as one in
    # C code: dump every thread's stack and exit
    faulthandler.dump_traceback_later(2 * TIME_LIMIT, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


CRITERIA = {
    1: "six-vertex graph: full cut spectrum table, weights, invariant",
    2: "six-vertex graph: cycle spectrum, rim, vertex weights",
    3: "isometric cycle listings (Petersen, complete graphs, worked examples)",
    4: "isometric cycles span the cycle space on every fixture",
    5: "line graph cycle classification and digital invariants",
    6: "non-isomorphic pairs distinguished (regular, switched, deep, trees)",
    7: "isomorphic groups confirmed with explicit bijections",
    8: "orbit candidates agree with automorphism orbits",
    9: "randomized law suite over 300 graphs",
    10: "cut spectrum runtime scaling on doubled cubic graphs",
}

_PAT = re.compile(r"test_acceptance\.py::test_criterion_0?(\d+)\b")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, ()):
            m = _PAT.search(getattr(rep, "nodeid", ""))
            if m:
                num = int(m.group(1))
                if status != "passed":
                    results[num] = "FAIL"
                else:
                    results.setdefault(num, "PASS")
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(CRITERIA):
        mark = results.get(num, "not run")
        terminalreporter.write_line(f"criterion {num:>2}: {mark} - {CRITERIA[num]}")
