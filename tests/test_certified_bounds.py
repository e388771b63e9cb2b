"""Decisions taken from certified norm bounds equal the exact decisions.

A test ``|A| <= threshold`` is decided from the Frobenius norm (an upper
bound) and the largest column norm (a lower bound) and measures the
spectral norm only when neither decides; the pair's inclusion verdicts and
the Neumann stopping rule and order certificate read the same bounds. These
tests force every bound to defer and check that each public result is the
same bit for bit, and check the bounds themselves where they are tight.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinvperturb
from pinvperturb import (
    InvariantViolation,
    PinvPerturbError,
    adversarial_pair,
    haar_unitary,
    neumann_pinv,
    pseudoinverse,
    spectral_norm,
)
from pinvperturb import generators, hypotheses, linalg, perturb, pinv, reverse_order, verify
from pinvperturb.generators import GenSpec, random_operator, s_alpha
from pinvperturb.hypotheses import _Pair
from pinvperturb.linalg import DEFAULT_TOL, _norm_bounds, _norm_le
from conftest import random_complex

_MODULES = (linalg, hypotheses, perturb, generators, pinv, reverse_order, verify)


@contextlib.contextmanager
def bounds_never_decide():
    """Every certified bound defers, so each decision is measured exactly."""
    solve = linalg._solve_bounded
    patches = {
        "_norm_bounds": lambda m: (0.0, math.inf),
        "_term_bounds": lambda *args: (0.0, math.inf, math.inf),
        "_solve_bounded": lambda a, b, tol, lo, hi, right=False:
            solve(a, b, tol, 0.0, math.inf, right),
    }
    with pytest.MonkeyPatch.context() as mp:
        for module in _MODULES:
            for name, fn in patches.items():
                if hasattr(module, name):
                    mp.setattr(module, name, fn)
        yield


def _canonical(value):
    """A value with every float and array reduced to its exact bits."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_canonical(getattr(value, f.name))
                                      for f in dataclasses.fields(value)]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return repr(value)


def _outcome(call, *args):
    try:
        return "value", _canonical(call(*args))
    except PinvPerturbError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "condition", None)


def _routes(t, s):
    return [
        (pinvperturb.check_stewart_hypotheses, t, s),
        (pinvperturb.check_range_inclusion, t, s),
        (pinvperturb.check_null_inclusion, t, s),
        (pinvperturb.estimate_lambda1, t, s),
        (pinvperturb.update_stewart, t, s),
        (pinvperturb.update_relative_surjective, t, s, 0.5, 0.0),
        (pinvperturb.neumann_pinv, t, t + s),
        (pinvperturb.error_bound_stewart, t, s),
        (pinvperturb.error_bound_lambda2_zero, t, s),
        (pinvperturb.gamma_continuity_bound, t, s),
        *((pinvperturb.norm_bounds_ding_huang, t, s, case)
          for case in ("injective", "surjective", "general")),
        (pinvperturb.mat_close, t, t + s),
        (pinvperturb.mp_representation, t),
    ]


def _operator(rows, cols, rank, seed):
    return random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=0.5,
                                   norm_target=2.0, seed=seed))


def _fixtures(div=10):
    """The pinned fixtures of ``test_svd_counts`` with every side divided by
    ``div``, the adversarial pairs, and a relative and three Neumann-type
    pairs."""
    def shrink(*shape):
        return tuple(max(n // div, 1) for n in shape)

    out = {}
    for shape in [(160, 120, 90), (140, 140, 100), (120, 160, 120), (160, 120, 120)]:
        t = _operator(*shrink(*shape), 3)
        out[f"stewart{shape}"] = (t, s_alpha(t, 0.5))
    for kind in ("range_violation", "null_violation", "norm_violation"):
        out[kind] = adversarial_pair(kind, 0)
    t = _operator(*shrink(120, 160, 120), 3)
    out["relative"] = (t, pinvperturb.random_relative_perturbation(t, 0.5, 5))
    for rho in (0.005, 0.5, 0.76):
        t = _operator(*shrink(60, 90, 60), 7)
        u = haar_unitary(t.shape[0], np.random.default_rng(1))
        out[f"neumann{rho}"] = (t, rho * (u @ t))
    return out


def _same_with_bounds_deferred(t, s):
    routes = _routes(t, s)
    bounded = [_outcome(*route) for route in routes]
    with bounds_never_decide():
        exact = [_outcome(*route) for route in routes]
    assert bounded == exact


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
@pytest.mark.parametrize("name", sorted(_fixtures()))
def test_deferred_decisions_are_bit_identical(name, scale):
    t, s = _fixtures()[name]
    _same_with_bounds_deferred(scale * t, scale * s)


@pytest.mark.parametrize("name", sorted(_fixtures()))
def test_deferred_decisions_are_bit_identical_at_the_pinned_sizes(name):
    _same_with_bounds_deferred(*_fixtures(div=1)[name])


def test_deferring_measures_more():
    # the deferral switch reaches the decisions it is meant to reach
    t, s = _fixtures()["stewart(160, 120, 90)"]
    counted = []
    real = linalg.spectral_norm

    def counting(a):
        counted.append(1)
        return real(a)

    def count(call):
        counted.clear()
        with pytest.MonkeyPatch.context() as mp:
            for module in _MODULES:
                if hasattr(module, "spectral_norm"):
                    mp.setattr(module, "spectral_norm", counting)
            call()
        return len(counted)

    bounded = count(lambda: pinvperturb.update_stewart(t, s))
    with bounds_never_decide():
        exact = count(lambda: pinvperturb.update_stewart(t, s))
    # the two inclusions (four residuals), mat_close (three norms) and the
    # recovery identity (two norms)
    assert exact - bounded == 9


@pytest.mark.parametrize("kind", ["range_violation", "null_violation"])
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
def test_pair_verdicts_equal_the_exact_readings(kind, scale):
    t, s = adversarial_pair(kind, 0)
    for mt, ms in ((t, s), (t, 0.0 * s), (t, 1e-3 * t)):
        for inclusion in ("range_inclusion", "null_inclusion"):
            verdict = _Pair(scale * mt, scale * ms).holds(inclusion)
            assert verdict == getattr(_Pair(scale * mt, scale * ms), inclusion)[0]


@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-12.0, 12.0),
    ulps=st.integers(-6, 6),
)
@settings(max_examples=200, deadline=None)
def test_rank_one_threshold_within_ulps(rows, cols, seed, log_scale, ulps):
    # |A|_F = |A|_2 for rank one, so the upper bound is as tight as it gets
    rng = np.random.default_rng(seed)
    a = 10.0**log_scale * np.outer(random_complex(rng, rows, 1), random_complex(rng, 1, cols))
    norm = spectral_norm(a)
    thr = norm
    for _ in range(abs(ulps)):
        thr = np.nextafter(thr, math.inf if ulps > 0 else -math.inf)
    thr = float(thr)
    assert _norm_le(a, thr) == (norm <= thr)
    assert _norm_le(a, thr, lambda: thr) == (norm <= thr)
    lo, hi = _norm_bounds(a)
    assert lo <= norm <= hi


@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-12.0, 12.0),
    factor=st.floats(0.05, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_any_threshold_matches_the_spectral_norm(rows, cols, seed, log_scale, factor):
    rng = np.random.default_rng(seed)
    a = 10.0**log_scale * random_complex(rng, rows, cols)
    norm = spectral_norm(a)
    assert _norm_le(a, factor * norm) == (norm <= factor * norm)
    lo, hi = _norm_bounds(a)
    assert lo <= norm <= hi


def test_bounds_decide_nothing_where_squares_leave_their_range():
    for scale in (1e-170, 1e170):
        a = scale * np.ones((3, 2))
        assert _norm_bounds(a) == (0.0, math.inf)
        assert _norm_le(a, 2.0 * scale) == (spectral_norm(a) <= 2.0 * scale)
    assert _norm_bounds(np.zeros((3, 2))) == (0.0, 0.0)


@given(
    rows=st.integers(1, 6),
    extra=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    ratio=st.floats(0.005, 0.9),
    log_scale=st.floats(-6.0, 6.0),
)
@settings(max_examples=60, deadline=None)
def test_neumann_term_bounds_dominate_the_terms(rows, extra, seed, ratio, log_scale):
    rng = np.random.default_rng(seed)
    gamma, norm = (0.5, 0.5) if rows == 1 else (0.5, 1.5)
    t = random_operator(GenSpec(rows, rows + extra, rows, gamma, norm, seed))
    w = random_complex(rng, rows, rows)
    c = 10.0**log_scale
    t, s = c * t, c * (t + (ratio / spectral_norm(w)) * (w @ t))
    recorded = []
    certify = perturb._certify_orders

    def spy(err, term_norms, *rest):
        recorded.append(list(term_norms))
        return certify(err, term_norms, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturb, "_certify_orders", spy)
        # a small ratio at a small scale can fail the per-order check (the
        # known eq_abs defect); the bounds were recorded before that check
        with contextlib.suppress(InvariantViolation):
            neumann_pinv(t, s)
    td = pseudoinverse(t).pinv
    step = (s - t) @ td
    term = td
    for j, bound in enumerate(recorded[0]):
        if j:
            term = -(term @ step)
        assert spectral_norm(term) <= bound


def test_last_term_norm_is_measured_exactly():
    t = _operator(6, 9, 6, 7)
    s = t + 0.5 * (haar_unitary(6, np.random.default_rng(1)) @ t)
    res = neumann_pinv(t, s)
    td = pseudoinverse(t).pinv
    step = (s - t) @ td
    term = td
    for _ in range(res.terms_used - 1):
        term = -(term @ step)
    assert res.last_term_norm == spectral_norm(term)


@pytest.mark.parametrize("norm_x", [0.0, 0.3, 0.999])
def test_shifted_solve_skips_only_the_singularity_check(norm_x):
    rng = np.random.default_rng(4)
    x = random_complex(rng, 7, 7)
    x *= norm_x / spectral_norm(x) if norm_x else 0.0
    a, b = np.eye(7) + x, random_complex(rng, 7, 3)
    norm = spectral_norm(x)
    assert np.array_equal(linalg._solve_shifted(a, b, norm, DEFAULT_TOL),
                          pinvperturb.solve_square(a, b))
    assert np.array_equal(linalg._solve_shifted(a, b.T, norm, DEFAULT_TOL, right=True),
                          linalg.solve_from_right(b.T, a))


def test_shifted_solve_of_a_singular_matrix_refuses_as_solve_square_does():
    x = -np.diag([1.0, 0.5, 0.25])  # |X| = 1: Weyl proves nothing, I + X is singular
    with pytest.raises(pinvperturb.SingularMatrixError) as shifted:
        linalg._solve_shifted(np.eye(3) + x, np.eye(3), 1.0, DEFAULT_TOL)
    with pytest.raises(pinvperturb.SingularMatrixError) as exact:
        pinvperturb.solve_square(np.eye(3) + x, np.eye(3))
    assert str(shifted.value) == str(exact.value)
