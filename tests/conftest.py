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


def rank_jump_pair(draw=1029):
    """Draw ``draw`` of the rank-one family T = uv* (3x2), S = c TXT.

    u, v and X are complex Gaussian from ``default_rng(1)``, and c makes
    |T'S| uniform in [0.1, 0.99). The Stewart hypotheses hold and (T+S)' is
    T' / (1 + c v*Xu) exactly, but on draw 1029 T+S has a rounding-level
    second singular value just above the rank cutoff, so its SVD reads
    rank 2 and its pseudoinverse is far from the closed form.
    """
    rng = np.random.default_rng(1)

    def gaussian(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(draw + 1):
        u, v, x = gaussian((3, 1)), gaussian((2, 1)), gaussian((2, 3))
        target = rng.uniform(0.1, 0.99)
    t = u @ v.conj().T
    base = t @ x @ t
    tds = np.linalg.pinv(t) @ base
    return t, (target / np.linalg.svd(tds, compute_uv=False)[0]) * base
