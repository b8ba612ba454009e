"""Suite-wide test settings.

The Hypothesis tests check values, not speed: they run with no per-example
deadline, so a stall on a loaded host cannot fail a property whose values hold.
Timing bounds are asserted explicitly where they matter.
"""

from hypothesis import settings

settings.register_profile("values", deadline=None)
settings.load_profile("values")
