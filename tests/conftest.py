from hypothesis import settings

# Derandomized, so every run draws the same examples, and without a deadline,
# so a slow host cannot fail a property on time alone.
settings.register_profile("repo", derandomize=True, deadline=None, database=None)
settings.load_profile("repo")
