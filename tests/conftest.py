"""Shared pytest hooks.

The acceptance tests register one verdict line per criterion; printing them
from the terminal-summary hook keeps them visible regardless of capture
mode.

`HYPOTHESIS_PROFILE=ci` selects a derandomized Hypothesis profile with the
usual example counts, so a property that fails in CI fails the same way in
a local run with the same setting.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip or fail on their own
    pass
else:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

verdict_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if verdict_lines:
        terminalreporter.section("acceptance criteria")
        for line in verdict_lines:
            terminalreporter.line(line)
