"""Decisions taken from certified norm bounds equal the exact decisions.

A test ``|A| <= threshold`` is decided from the Frobenius norm (an upper
bound) and the largest column norm (a lower bound) and measures the
spectral norm only when neither decides; the pair's inclusion verdicts and
the Neumann stopping rule and order certificate read the same bounds. These
tests force every bound to defer and check that each public result is the
same bit for bit, and check the bounds themselves where they are tight.

The update routes certify the relative bound exactly when the null
inclusion holds and sample only when that certificate cannot decide; the
tests below force the sampler, count its runs, and check that the
certificate is tight and never certifies a pair the sampler refutes.
"""

import contextlib
import dataclasses
import io
import math
from collections import Counter

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
    write_matrix,
)
from pinvperturb import generators, hypotheses, linalg, perturb, pinv, reverse_order, verify
from pinvperturb.cli import cli_dispatch
from pinvperturb.generators import GenSpec, random_operator, s_alpha
from pinvperturb.hypotheses import _Pair
from pinvperturb.linalg import DEFAULT_TOL, _near, _norm_bounds, _norm_le
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
    # the two inclusions (four residuals), the left/right check (three
    # norms), the recovery identity (two norms) and the oracle check (two
    # norms, one of them the reported oracle discrepancy, which the bounded
    # run measures as well)
    assert exact - bounded == 10


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
    # the closeness test of |a - 0| at the bound thr, with eq far below an
    # ulp of thr, so that bound + eq(scale) rounds to thr
    tiny = dataclasses.replace(DEFAULT_TOL, eq_abs=math.ulp(0.0), eq_rel=math.ulp(0.0))
    assert _near(a, np.zeros_like(a), tiny, thr)[0] == (norm <= thr)
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
    assert np.array_equal(linalg._solve_shifted(x, b, norm, DEFAULT_TOL),
                          pinvperturb.solve_square(a, b))
    assert np.array_equal(linalg._solve_shifted(x, b.T, norm, DEFAULT_TOL, right=True),
                          linalg.solve_from_right(b.T, a))


def test_shifted_solve_of_a_singular_shift_is_an_invariant_violation():
    # every caller's theorem makes I + X invertible, so a singular one is a
    # violated invariant; the message keeps the singular solve's own text
    x = -np.diag([1.0, 0.5, 0.25])  # |X| = 1: Weyl proves nothing, I + X is singular
    with pytest.raises(pinvperturb.InvariantViolation) as shifted:
        linalg._solve_shifted(x, np.eye(3), 1.0, DEFAULT_TOL)
    with pytest.raises(pinvperturb.SingularMatrixError) as exact:
        pinvperturb.solve_square(np.eye(3) + x, np.eye(3))
    assert str(shifted.value).endswith(str(exact.value))
    assert shifted.value.__cause__.smallest_sigma == exact.value.smallest_sigma


def _bounds_residual_builds(tmp_path, t, s):
    """How often one ``bounds`` command builds each pair's residual matrices."""
    counts = Counter()
    paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
    write_matrix(t, paths[0])
    write_matrix(s, paths[1])
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_range_residuals", "_null_residuals"):
            real = getattr(_Pair, name)
            mp.setattr(_Pair, name, lambda self, real=real, name=name:
                       counts.update([(id(self), name)]) or real(self))
        with contextlib.redirect_stdout(io.StringIO()):
            cli_dispatch(["--json", "bounds", *paths])
    return counts


@pytest.mark.parametrize("shape", [(18, 18, 15), (4, 3, 2), (5, 8, 5), (8, 5, 5),
                                   "range_violation", "null_violation", "norm_violation"])
def test_bounds_builds_each_residual_once(tmp_path, shape):
    # every route of the command reads the verdict and the residual bounds
    # that the pair kept from its first decision, and a refusal names only
    # the condition that failed, so no passing inclusion is read again
    if isinstance(shape, str):
        counts = _bounds_residual_builds(tmp_path, *adversarial_pair(shape, 0))
        assert max(counts.values(), default=0) <= 1
        return
    t = _operator(*shape, 3)
    counts = _bounds_residual_builds(tmp_path, t, s_alpha(t, 0.5))
    assert {name for _, name in counts} == {"_range_residuals", "_null_residuals"}
    assert max(counts.values()) == 1


@pytest.mark.parametrize("kind", ["range_violation", "null_violation"])
def test_a_failed_inclusion_is_read_from_its_one_build(tmp_path, kind):
    # the failing inclusion's exact reading is taken from the residuals its
    # bound was computed from
    counts = _bounds_residual_builds(tmp_path, *adversarial_pair(kind, 0))
    failed = "_range_residuals" if kind == "range_violation" else "_null_residuals"
    assert [n for (_, name), n in counts.items() if name == failed] == [1]


@contextlib.contextmanager
def sampler_spy():
    """Record every run of the relative-bound sampler."""
    runs = []
    real = hypotheses._relative_slack
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypotheses, "_relative_slack",
                   lambda *args: runs.append(args[1:]) or real(*args))
        yield runs


@contextlib.contextmanager
def always_sample():
    """The relative bound is always decided by the sampler."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (hypotheses, perturb):
            mp.setattr(module, "_relative_bound", hypotheses._relative_slack)
        yield


def _null_leak(t, size, seed):
    """A relative perturbation of T plus ``size`` times a map of N(T), so N(T)
    is not in N(S)."""
    rng = np.random.default_rng(seed)
    z = pseudoinverse(t).null_basis
    return (pinvperturb.random_relative_perturbation(t, 0.3, seed)
            + size * random_complex(rng, t.shape[0], z.shape[1]) @ z.conj().T)


def _relative_cases():
    t = _operator(12, 16, 12, 3)
    tn = _operator(6, 9, 6, 7)
    u = haar_unitary(6, np.random.default_rng(1))
    cases = {}
    for lam in (0.0, 0.3, 0.7):
        s = pinvperturb.random_relative_perturbation(t, lam, 5)
        for lambda1, lambda2 in ((0.5, 0.0), (0.75, 0.0), (0.2, 0.4), (0.95, -0.1),
                                 (0.3, -0.5)):
            cases[f"relative{lam}-{lambda1}-{lambda2}"] = (
                perturb.update_relative_surjective, t, s, lambda1, lambda2)
    for size in (1e-12, 1e-3, 1.0):
        cases[f"null_leak{size}"] = (perturb.update_relative_surjective, t,
                                     _null_leak(t, size, 5), 0.5, 0.0)
        cases[f"neumann_null_leak{size}"] = (neumann_pinv, t, t + _null_leak(t, size, 5))
    for rho in (0.005, 0.5, 0.76):
        cases[f"neumann{rho}"] = (neumann_pinv, tn, tn + rho * (u @ tn))
    return cases


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("name", sorted(_relative_cases()))
def test_forced_sampling_is_bit_identical(name, scale):
    call, t, s, *params = _relative_cases()[name]
    certified = _outcome(call, scale * t, scale * s, *params)
    with always_sample():
        sampled = _outcome(call, scale * t, scale * s, *params)
    assert certified == sampled


def test_forced_sampling_leaves_the_verify_trials_bit_identical():
    suites = (verify.suite_relative, verify.suite_neumann)
    certified = [_canonical(suite(20, 20, 0)) for suite in suites]
    with always_sample():
        sampled = [_canonical(suite(20, 20, 0)) for suite in suites]
    assert certified == sampled


def test_certificate_decides_every_update_of_a_lib_updates_round():
    # the relative and Neumann calls of a perfbench lib_updates round: the
    # same shapes, lambda1 = 0.5 and the six Neumann ratios
    rng = np.random.default_rng(11)
    with sampler_spy() as runs:
        for shape in ((120, 160, 120), (90, 150, 90)):
            t = _operator(*shape, int(rng.integers(2**31)))
            s = pinvperturb.random_relative_perturbation(t, 0.5, int(rng.integers(2**31)))
            perturb.update_relative_surjective(t, s, 0.5, 0.0)
        for rho in (0.005, 0.12, 0.3, 0.5, 0.7, 0.76):
            t = _operator(60, 90, 60, int(rng.integers(2**31)))
            neumann_pinv(t, t + rho * (haar_unitary(60, rng) @ t))
    assert runs == []


def test_certificate_decides_every_verify_trial():
    with sampler_spy() as runs:
        assert verify.run_verification(20, 0)[1]
    assert runs == []


def _svd_count(call, *args):
    calls = []
    real = np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
        _outcome(call, *args)
    return len(calls)


@pytest.mark.parametrize("size", [1e-3, 1.0])
def test_a_pair_outside_the_null_inclusion_is_sampled_once(size):
    # the certificate reads the inclusion's bounds only: where they cannot
    # certify, the sampler decides and no exact inclusion reading is taken
    t = _operator(12, 16, 12, 3)
    s = _null_leak(t, size, 5)
    call = (perturb.update_relative_surjective, t, s, 0.5, 0.0)
    with sampler_spy() as runs:
        certified = _outcome(*call)
    assert len(runs) == 1
    with always_sample():
        assert _outcome(*call) == certified
        sampled_svds = _svd_count(*call)
    assert _svd_count(*call) == sampled_svds
    # the sampler tries a basis of N(T), where the leak lies
    assert certified[0] == "HypothesisRefusal"
    assert certified[2] == "relative_bound"


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("rho", [0.005, 0.5, 0.76])
def test_neumann_pairs_satisfy_the_relative_bound_of_their_ratio(rho, scale):
    # N(T) in N(S - T) gives S - T = ((S - T)T')T, so |(S - T)x| <= ratio |Tx|
    # for every x: the sampler finds no violation on the Neumann pairs
    _, t, s = _relative_cases()[f"neumann{rho}"]
    t, s = scale * t, scale * s
    res = neumann_pinv(t, s)
    ok, worst = pinvperturb.check_relative_bound(t, s - t, res.ratio, 0.0)
    assert ok, worst


@pytest.mark.parametrize("lambda2", [-0.5, -1e-3, 0.0, 0.4])
def test_certificate_is_tight_where_the_bound_is(lambda2):
    # S = +-mu W T with W positive semidefinite of norm 1: on x = T'q for the
    # top eigenvector q of W the slack is exactly c |Tx|, so the certificate
    # accepts every lambda1 from (1 + |lambda2|) mu - lambda2 up, and the
    # sampler finds a violation just below it
    rng = np.random.default_rng(2)
    t = _operator(6, 9, 6, 7)
    q = haar_unitary(6, rng)
    w = (q * np.array([1.0, 0.8, 0.5, 0.3, 0.2, 0.1])) @ q.conj().T
    s = (0.3 if lambda2 < 0 else -0.3) * (w @ t)
    pair = _Pair(t, s)
    mu = float(pair.f_std.sigma[0])
    least = (1.0 + abs(lambda2)) * mu - lambda2
    with sampler_spy() as runs:
        assert hypotheses._relative_bound(pair, least + 1e-9, lambda2) == (True, None)
    assert runs == []
    ok, worst = hypotheses._relative_bound(pair, least - 1e-6, lambda2)
    assert not ok and worst < -hypotheses._relative_threshold(pair)


@given(
    rows=st.integers(1, 6),
    extra=st.integers(0, 4),
    rank_drop=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    w_norm=st.floats(0.0, 0.6),
    aligned=st.sampled_from([None, 1.0, -1.0]),
    offset=st.one_of(st.floats(-0.05, 0.05), st.floats(-1e-9, 1e-9)),
    lambda2=st.one_of(st.just(0.0), st.floats(-0.99, 0.99), st.floats(-1e-3, 1e-3)),
    log_scale=st.floats(-6.0, 6.0),
    leak=st.sampled_from([0.0, 1e-14, 1e-9, 1e-3]),
)
@settings(max_examples=300, deadline=None)
def test_certificate_never_certifies_a_sampled_violation(
        rows, extra, rank_drop, seed, w_norm, aligned, offset, lambda2, log_scale, leak):
    rng = np.random.default_rng(seed)
    cols = rows + extra
    rank = max(rows - rank_drop, 1)
    t = random_operator(GenSpec(rows, cols, rank, 0.5, 0.5 if rank == 1 else 1.5, seed))
    if aligned is None:
        w = generators.random_contraction(rows, rng)
    else:
        # S x = +-|ST'| T x on the top direction, where the bound is tight
        q = haar_unitary(rows, rng)
        w = aligned * (q * np.concatenate([[1.0], rng.uniform(0.0, 1.0, rows - 1)])) @ q.conj().T
    s = w_norm * (w @ t)
    z = pseudoinverse(t).null_basis
    s = s + leak * random_complex(rng, rows, z.shape[1]) @ z.conj().T
    # a Haar change of basis on each side, then one scale for the pair
    u, v = haar_unitary(rows, rng), haar_unitary(cols, rng)
    c = 10.0**log_scale
    t, s = c * (u @ t @ v.conj().T), c * (u @ s @ v.conj().T)

    pair = _Pair(t, s)
    mu = float(pair.f_std.sigma[0])
    # near the least lambda1 the certificate can accept, which is mu at lambda2 = 0
    lambda1 = min((1.0 + abs(lambda2)) * mu - lambda2 + offset * mu, 0.999)
    with sampler_spy() as runs:
        ok, worst = hypotheses._relative_bound(pair, lambda1, lambda2)
    if runs:
        return  # the sampler decided
    assert ok and worst is None
    _, sampled = pinvperturb.check_relative_bound(t, s, lambda1, lambda2, samples=2000)
    assert sampled >= -hypotheses._relative_threshold(pair)
