"""Suite-wide settings: property tests draw the same examples on every run.

``derandomize`` seeds hypothesis from each test itself, so tier-1 stays
deterministic, and no deadline applies, since BLAS timings on a small
shared machine vary from run to run.
"""

from hypothesis import settings

settings.register_profile("tsfactor", derandomize=True, deadline=None, database=None)
settings.load_profile("tsfactor")
