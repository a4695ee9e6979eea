import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

# Hypothesis imports libcst to word a failing example's report, and importing
# libcst warns that mypy_extensions.TypedDict is deprecated. Under -W error that
# warning, raised inside pytest's report hook, would end the run in INTERNALERROR
# and hide the falsifying example. Import it once here with that warning ignored,
# for this import only; every warning a test raises is still an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst.codemod  # noqa: F401
    except ImportError:
        pass


# A derandomized run draws the same examples on every run, so a failure where CI is set,
# as GitHub Actions sets it, reproduces locally with CI=true. max_examples stays each test's own.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
