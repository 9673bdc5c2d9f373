"""Hypothesis profiles for the suite.

Tier-1 runs the `pinned` profile: every property test draws the same examples
on every run, so a failure reproduces and a pass is not luck.  Unpinned
exploration is a separate, report-only run:

    pytest --hypothesis-profile explore tests
"""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("pinned")
