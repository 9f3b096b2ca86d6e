import contextlib
import warnings

import numpy as np
import pytest

from delaylab import dmc

# hypothesis reports a failing example through hypothesis.extra._patching,
# whose libcst import makes mypy_extensions raise a DeprecationWarning that
# pyproject.toml's filters turn into an error inside pytest's reporting:
# import it once here with that warning ignored (it needs libcst)
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def bsc002():
    return dmc.bsc(0.02)


@pytest.fixture(scope="session")
def bec04():
    return dmc.bec(0.4)


@pytest.fixture(scope="session")
def z05():
    return dmc.z_channel(0.5)


@pytest.fixture(scope="session")
def random_channels():
    """A reproducible bag of small random channels."""
    rng = np.random.default_rng(42)
    out = []
    for _ in range(12):
        nx = rng.integers(2, 4)
        ny = rng.integers(2, 4)
        rows = rng.dirichlet(np.ones(ny), size=nx)
        out.append(dmc.Dmc(rows))
    return out
