from hypothesis import settings

# property tests draw the same examples on every run, keep no example database,
# and are timed by their own test budgets rather than per example
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
