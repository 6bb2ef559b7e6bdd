"""Shared test settings: every hypothesis test runs derandomized, with no
deadline and no example database, so each run sees the same examples."""

from hypothesis import settings

settings.register_profile("capqubit", derandomize=True, deadline=None, database=None)
settings.load_profile("capqubit")
