import warnings

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
