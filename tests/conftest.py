"""Test-suite settings shared by every module."""

from hypothesis import settings

# Hypothesis's default 200 ms per-example deadline fails tests whose
# examples run slowly on a loaded machine, though they pass; the number and
# shape of the examples stay the defaults.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")
