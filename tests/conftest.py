"""Hypothesis profiles for the test suite.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: every run draws the same
examples, so a red build is a reproducible failure rather than an unlucky
draw, and a failure prints the blob that replays it. Without the variable,
local runs keep exploring new examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
