"""The a-priori bounds, the relative-bound sampler and the CLI at extreme
scales of (T, S).

Every route is homogeneous: scaling (T, S) by 2^k scales T' and every
a-priori bound by 2^-k, and the slack of the relative bound by 2^k. Scaling
by a power of two is exact, so these tests scale a Stewart pair and a
relative pair far into the range where |T'|^2, or a column norm of the
pulled-back directions T'v, over- or underflows, and check that the values
stay finite, positive and homogeneous.
"""

import json
import math

import numpy as np
import pytest

from pinvperturb import (
    GenSpec,
    HypothesisRefusal,
    check_relative_bound,
    error_bound_lambda2_zero,
    error_bound_stewart,
    hypotheses,
    random_operator,
    random_relative_perturbation,
    s_alpha,
    update_relative_surjective,
    update_stewart,
    write_matrix,
)
from pinvperturb.cli import cli_dispatch


def _operator(rows, cols, rank):
    return random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=0.5,
                                   norm_target=2.0, seed=3))


def _stewart_pair(k=0):
    t = _operator(8, 6, 4)
    return 2.0**k * t, 2.0**k * s_alpha(t, 0.5)


def _relative_pair(k=0):
    t = _operator(6, 9, 6)
    return 2.0**k * t, 2.0**k * random_relative_perturbation(t, 0.5, 1)


# |T'|^2 overflows at 2^-520 and underflows at 2^600 and beyond
SCALES = [-1000, -520, 600, 900, 1000]

BOUNDS = {
    "error_bound_stewart": (_stewart_pair, error_bound_stewart),
    "update_stewart": (_stewart_pair, lambda t, s: update_stewart(t, s).bound_apriori),
    "error_bound_lambda2_zero": (_relative_pair, error_bound_lambda2_zero),
    "update_relative_surjective": (
        _relative_pair, lambda t, s: update_relative_surjective(t, s, 0.5, 0.0).bound_apriori),
}


@pytest.mark.parametrize("k", SCALES)
@pytest.mark.parametrize("route", BOUNDS)
def test_a_priori_bound_is_homogeneous(route, k):
    pair_at, bound_of = BOUNDS[route]
    bound = bound_of(*pair_at(k))
    assert math.isfinite(bound) and bound > 0.0
    assert math.isclose(bound, math.ldexp(bound_of(*pair_at()), -k), rel_tol=1e-15)


@pytest.mark.parametrize("k", [-520, 1000])
def test_cli_stewart_routes_report_the_bound(tmp_path, capsys, k):
    paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
    for m, path in zip(_stewart_pair(k), paths):
        write_matrix(m, path)
    want = error_bound_stewart(*_stewart_pair(k))

    assert cli_dispatch(["--json", "update", *paths, "--method", "stewart"]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["bound_apriori"] == want
    assert cli_dispatch(["--json", "bounds", *paths]) == 0
    stewart = json.loads(capsys.readouterr().out)["verdicts"]["stewart"]
    assert stewart["bound"] == want > 0.0
    assert stewart["dominates"] and stewart["measured"] <= stewart["bound"]


def test_relative_update_bound_keeps_the_strict_margin():
    # |ST'| = 1 - 5e-9 lies within margin_strict = 1e-8 of 1: the lambda2 = 0
    # bound refuses there, and the relative update, which holds for
    # lambda1 = 1 - 1e-9, reports no bound rather than 1 / 5e-9 times |S||T'|^2
    t, s = np.eye(2), (1.0 - 5e-9) * np.diag([1.0, 0.0])
    with pytest.raises(HypothesisRefusal) as refusal:
        error_bound_lambda2_zero(t, s)
    assert refusal.value.condition == "norm_STd"
    res = update_relative_surjective(t, s, 1.0 - 1e-9, 0.0)
    assert res.bound_apriori is None


@pytest.mark.parametrize("k", [-520, -600])
def test_sampler_does_not_overflow_at_small_scale(k):
    # pytest turns an overflow RuntimeWarning into an error
    ok, _ = check_relative_bound(*_relative_pair(k), 0.5, 0.0)
    assert ok
    _, worst = check_relative_bound(*_relative_pair(k), 0.1, 0.0)
    _, worst_unscaled = check_relative_bound(*_relative_pair(), 0.1, 0.0)
    # LAPACK scales tiny inputs itself, so the slack is homogeneous only to
    # rounding here
    assert worst < 0.0
    assert math.isclose(worst, math.ldexp(worst_unscaled, k), rel_tol=1e-12)
    assert update_relative_surjective(*_relative_pair(k), 0.5, 0.0)


@pytest.mark.parametrize("scale", [2.0**600, 1e200])
def test_sampler_keeps_the_pulled_back_directions(monkeypatch, scale):
    widths = []
    unit_columns = hypotheses._unit_columns

    def counting(x):
        unit = unit_columns(x)
        widths.append(unit.shape[1])
        return unit

    monkeypatch.setattr(hypotheses, "_unit_columns", counting)
    t, s = _relative_pair()
    check_relative_bound(scale * t, scale * s, 0.5, 0.0)
    # the first block is T' times the 6 right singular vectors of ST'
    assert widths[0] == 6
