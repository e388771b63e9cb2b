"""SVD calls per public call, pinned on fixed seeded pairs.

Each operator is factored once per call and every derived quantity is read
from that factorization, so the number of SVDs a call makes is part of its
contract. Counts are exact and hardware-independent, unlike wall time.
Every call to ``np.linalg.svd`` is recorded together with whether it formed
full singular-vector matrices (``compute_uv`` and ``full_matrices`` both
true); tall and square inputs never need them.
"""

import numpy as np
import pytest

from pinvperturb import (
    write_matrix,
    GenSpec,
    check_relative_bound,
    check_stewart_hypotheses,
    error_bound_stewart,
    gamma_continuity_bound,
    haar_unitary,
    neumann_pinv,
    norm_bounds_ding_huang,
    pseudoinverse,
    random_operator,
    random_relative_perturbation,
    reverse_order_pinv,
    s_alpha,
    update_relative_surjective,
    update_stewart,
)
from pinvperturb.cli import cli_dispatch
from pinvperturb.verify import run_verification


def svd_calls(call, *args):
    """Run ``call(*args)``; one ``full`` flag per ``np.linalg.svd`` call it made."""
    calls = []
    real = np.linalg.svd

    def counting(a, *svd_args, **kwargs):
        full = kwargs.get("full_matrices", svd_args[0] if svd_args else True)
        uv = kwargs.get("compute_uv", svd_args[1] if len(svd_args) > 1 else True)
        calls.append(bool(full and uv))
        return real(a, *svd_args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", counting)
        call(*args)
    return calls


def _operator(rows, cols, rank, seed):
    return random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=0.5,
                                   norm_target=2.0, seed=seed))


def _stewart_pair(rows, cols, rank, seed=3):
    t = _operator(rows, cols, rank, seed)
    return t, s_alpha(t, 0.5)


# tall rank-deficient and square rank-deficient Stewart pairs
STEWART_SHAPES = [(160, 120, 90), (140, 140, 100)]


@pytest.mark.parametrize("shape", STEWART_SHAPES)
@pytest.mark.parametrize("call, count", [
    (check_stewart_hypotheses, 8),
    (update_stewart, 17),
    (gamma_continuity_bound, 9),
    (error_bound_stewart, 3),
])
def test_stewart_routes(shape, call, count):
    calls = svd_calls(call, *_stewart_pair(*shape))
    assert len(calls) == count
    assert not any(calls)


def test_pseudoinverse_is_one_economy_svd_when_tall():
    assert svd_calls(pseudoinverse, _operator(160, 120, 90, 3)) == [False]


def test_wide_pseudoinverse_keeps_full_v_for_the_null_basis():
    t = _operator(120, 160, 90, 3)
    assert svd_calls(pseudoinverse, t) == [True]
    pr = pseudoinverse(t)
    assert pr.null_basis.shape == (160, 70)
    assert pr.v.shape == (160, 120)


@pytest.mark.parametrize("case, shape, count", [
    ("injective", (160, 120, 120), 7),
    ("surjective", (120, 160, 120), 7),
    ("general", (140, 140, 100), 6),
])
def test_ding_huang_cases(case, shape, count):
    calls = svd_calls(norm_bounds_ding_huang, *_stewart_pair(*shape), case)
    assert len(calls) == count
    # only the factorizations of a wide T and T+S keep a full V
    assert sum(calls) == (2 if shape[0] < shape[1] else 0)


def _relative_pair():
    t = _operator(120, 160, 120, 3)
    return t, random_relative_perturbation(t, 0.5, 5)


def test_relative_update():
    assert len(svd_calls(update_relative_surjective, *_relative_pair(), 0.5, 0.0)) == 7


def test_relative_bound_check():
    assert len(svd_calls(check_relative_bound, *_relative_pair(), 0.5, 0.0)) == 4


def test_reverse_order_law():
    f, g = _operator(160, 60, 60, 3), _operator(60, 140, 60, 4)
    assert len(svd_calls(reverse_order_pinv, f, g)) == 14


@pytest.mark.parametrize("rho", [0.005, 0.5, 0.76])
def test_neumann_is_one_svd_per_term_plus_a_constant(rho):
    rng = np.random.default_rng(1)
    t = _operator(60, 90, 60, 7)
    s = t + rho * (haar_unitary(60, rng) @ t)
    res = neumann_pinv(t, s)
    assert res.converged
    assert len(svd_calls(neumann_pinv, t, s)) == res.terms_used + 10


def test_bounds_command_factors_t_and_t_plus_s_once(tmp_path, capsys):
    # rank 150 of 180: lambda2_zero and the injective and surjective
    # Ding-Huang cases refuse on rank; Stewart, general Ding-Huang and gamma
    # continuity apply
    paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
    for m, path in zip(_stewart_pair(180, 180, 150), paths):
        write_matrix(m, path)
    calls = svd_calls(cli_dispatch, ["--json", "bounds", *paths])
    assert len(calls) == 17
    assert not any(calls)
    verdicts = capsys.readouterr().out
    assert verdicts.count('"applicable": true') == 3


def test_verification_run():
    # each gamma-continuity sequence factors T once and solves for the
    # S_alpha direction once; the Stewart and relative trials read their
    # null bases and bounds from factorizations they already have
    assert len(svd_calls(run_verification, 20, 0)) == 4028
