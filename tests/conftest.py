"""Test-suite configuration.

Every Hypothesis property test runs under one profile: derandomized, so that
each run draws the same examples, with no example database and no deadline.
A test sets only its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
