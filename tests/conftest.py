"""Shared test configuration: one hypothesis profile for every property test.

Properties draw the same examples on every run (``derandomize``), keep no
example database between runs, and have no per-example deadline, because
some examples run a whole CLI command.
"""

from hypothesis import settings

settings.register_profile("cohsim", derandomize=True, database=None, deadline=None)
settings.load_profile("cohsim")
