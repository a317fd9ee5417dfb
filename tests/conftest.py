"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run, with no deadline and no example database,
so a run depends on nothing but the code.  Tests state only how many
examples they draw."""

from hypothesis import settings

settings.register_profile("quiverinv", deadline=None, derandomize=True, database=None)
settings.load_profile("quiverinv")
