"""Suite-wide Hypothesis settings.

No deadline: on a loaded machine a single example can take longer than
Hypothesis's 200 ms default without anything being wrong.  Failures print
the `@reproduce_failure` blob so that a failing example can be replayed.
"""

from hypothesis import settings

settings.register_profile("vmint", deadline=None, print_blob=True)
settings.load_profile("vmint")
