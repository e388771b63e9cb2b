import numpy as np
import pytest
from hypothesis import settings

from pinvperturb import Tolerances

# CI runs with --hypothesis-profile=ci: the same examples on every run, and a
# failing example printed as a blob that @reproduce_failure replays
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def tol():
    return Tolerances()


def random_complex(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
