import numpy as np
import pytest
from hypothesis import settings

from sepformer import ndkernel as nd

# property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is deterministic; each test keeps its own
# max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _finite_checks():
    # every op output is scanned for NaN/Inf while tests run
    nd.set_debug_checks(True)
    yield
    nd.set_debug_checks(False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
