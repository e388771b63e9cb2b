"""The verify suites' result layout, the pinned thresholds that gate them,
and the shared factorizations their trials read."""

import numpy as np
import pytest

from pinvperturb import (
    GenSpec,
    adjoint,
    error_bound_lambda2_zero,
    error_bound_stewart,
    gamma_continuity_bound,
    null_space_basis,
    principal_angle_gap,
    pseudoinverse,
    random_operator,
    random_relative_perturbation,
    reduced_min_modulus,
    s_alpha,
    spectral_norm,
    update_relative_surjective,
    update_stewart,
    verify,
    verify_mp_axioms,
)
from pinvperturb.generators import _s_alpha_direction
from pinvperturb.hypotheses import _Pair
from pinvperturb.linalg import DEFAULT_TOL, solve_from_right
from pinvperturb.perturb import _gamma_continuity

TRIALS, MAX_DIM, SEED = 4, 6, 0

SUITES = {
    "mp_axioms": lambda: verify.suite_mp_axioms(TRIALS, MAX_DIM, SEED),
    "stewart_update": lambda: verify.suite_stewart(TRIALS, MAX_DIM, SEED),
    "relative_update": lambda: verify.suite_relative(TRIALS, MAX_DIM, SEED),
    "neumann_series": lambda: verify.suite_neumann(TRIALS, MAX_DIM, SEED),
    "reverse_order_law": lambda: verify.suite_reverse_order(TRIALS, MAX_DIM, SEED),
    "gamma_continuity": lambda: verify.suite_gamma_continuity(TRIALS, 20, MAX_DIM, SEED),
    "typo_regressions": lambda: verify.suite_typo_regressions(SEED),
}

KEYS = {
    "mp_axioms": [
        "name", "trials", "worst_axiom_residual_rel", "worst_double_pinv_rel",
        "worst_adjoint_pinv_rel", "worst_gram_identity_rel", "worst_gamma_identity_dev",
        "passed",
    ],
    "stewart_update": [
        "name", "trials", "worst_oracle_rel", "worst_left_right_rel", "rank_mismatches",
        "worst_null_gap", "worst_bound_excess", "best_bound_exercise_ratio", "passed",
    ],
    "relative_update": [
        "name", "trials", "worst_oracle_rel", "worst_norm_cap_excess", "worst_bound_excess",
        "worst_corrected_gamma_violation", "printed_gamma_direction_failures", "passed",
    ],
    "neumann_series": [
        "name", "trials", "worst_tail_excess", "trials_over_term_cap",
        "unconverged_trials", "passed",
    ],
    "reverse_order_law": [
        "name", "trials", "worst_three_way_rel", "rank_mismatches", "worst_range_gap",
        "counterexample_gap", "counterexample_rejected", "passed",
    ],
    "gamma_continuity": [
        "name", "trials", "sequence_length", "worst_bound_excess",
        "worst_monotonicity_violation", "decay_failures", "passed",
    ],
    "typo_regressions": [
        "name", "intro_formula_ill_formed", "theorem_form_oracle_rel", "passed",
    ],
}

# (suite, result key, pinned constant it is judged against or None, relation
# the reduced value must keep to pass)
GATES = [
    ("mp_axioms", "worst_axiom_residual_rel", "AXIOM_REL", "<="),
    ("mp_axioms", "worst_double_pinv_rel", "IDENTITY_REL", "<="),
    ("mp_axioms", "worst_adjoint_pinv_rel", "IDENTITY_REL", "<="),
    ("mp_axioms", "worst_gram_identity_rel", "IDENTITY_REL", "<="),
    ("mp_axioms", "worst_gamma_identity_dev", "GAMMA_IDENTITY_DEV", "<="),
    ("stewart_update", "worst_oracle_rel", "STEWART_ORACLE_REL", "<="),
    ("stewart_update", "worst_left_right_rel", "LEFT_RIGHT_REL", "<="),
    ("stewart_update", "rank_mismatches", None, "== 0"),
    ("stewart_update", "worst_null_gap", "NULL_GAP", "<="),
    ("stewart_update", "worst_bound_excess", "BOUND_SLACK", "<="),
    ("stewart_update", "best_bound_exercise_ratio", "EXERCISE_RATIO", ">="),
    ("relative_update", "worst_oracle_rel", "RELATIVE_ORACLE_REL", "<="),
    ("relative_update", "worst_norm_cap_excess", "BOUND_SLACK", "<="),
    ("relative_update", "worst_bound_excess", "BOUND_SLACK", "<="),
    ("relative_update", "worst_corrected_gamma_violation", "BOUND_SLACK", "<="),
    ("relative_update", "printed_gamma_direction_failures", None, ">= 1"),
    ("neumann_series", "worst_tail_excess", "BOUND_SLACK", "<="),
    ("neumann_series", "trials_over_term_cap", None, "== 0"),
    ("neumann_series", "unconverged_trials", None, "== 0"),
    ("reverse_order_law", "worst_three_way_rel", "ROL_REL", "<="),
    ("reverse_order_law", "rank_mismatches", None, "== 0"),
    ("reverse_order_law", "worst_range_gap", "NULL_GAP", "<="),
    ("reverse_order_law", "counterexample_gap", "ROL_COUNTEREXAMPLE_GAP", ">"),
    ("reverse_order_law", "counterexample_rejected", None, "is True"),
    ("gamma_continuity", "worst_bound_excess", "BOUND_SLACK", "<="),
    ("gamma_continuity", "worst_monotonicity_violation", "MONOTONE_SLACK", "<="),
    ("gamma_continuity", "decay_failures", None, "== 0"),
    ("typo_regressions", "theorem_form_oracle_rel", "RELATIVE_ORACLE_REL", "<="),
]
THRESHOLD_GATES = [g for g in GATES if g[2] is not None]
# the suites that judge through the shared driver; typo_regressions is one
# computation, not trials
DRIVEN_GATES = [g for g in GATES if g[0] != "typo_regressions"]


@pytest.fixture(scope="module")
def observed():
    return {name: run() for name, run in SUITES.items()}


@pytest.mark.parametrize("suite", list(SUITES))
def test_result_keys_and_order(observed, suite):
    result = observed[suite]
    assert list(result) == KEYS[suite]
    assert result["name"] == suite
    assert result["passed"] is True


def test_every_pinned_constant_gates_a_suite():
    pinned = {name for name, value in vars(verify).items()
              if name.isupper() and isinstance(value, float)}
    assert {gate[2] for gate in THRESHOLD_GATES} == pinned


@pytest.mark.parametrize("suite,key,constant,relation", THRESHOLD_GATES,
                         ids=[f"{g[2]}-{g[0]}-{g[1]}" for g in THRESHOLD_GATES])
def test_threshold_gates_its_suite(observed, monkeypatch, suite, key, constant, relation):
    value = observed[suite][key]
    # the nearest threshold that the observed value no longer meets
    violated = {
        "<=": np.nextafter(value, -np.inf),
        ">=": np.nextafter(value, np.inf),
        ">": value,
    }[relation]
    monkeypatch.setattr(verify, constant, float(violated))
    assert SUITES[suite]()["passed"] is False


# a value for one trial (or for a fixed entry) that breaks each relation
_BAD = {"<=": np.inf, ">=": -np.inf, ">": -np.inf, "== 0": True, ">= 1": False,
        "is True": False}


@pytest.mark.parametrize("suite,key,constant,relation", DRIVEN_GATES,
                         ids=[f"{g[0]}-{g[1]}" for g in DRIVEN_GATES])
def test_each_gate_judges_its_own_key(observed, monkeypatch, suite, key, constant, relation):
    """Spoil one key alone, in every trial, and the suite must fail.

    Patching a shared constant such as BOUND_SLACK can trip a sibling key as
    well; this pins each row of the driver's table by itself.
    """
    bad = _BAD[relation]
    run_suite = verify._run_suite

    def spoiled(name, trial, seeds, metrics, info=None, fixed=None):
        if key in metrics:
            return run_suite(name, lambda seed: {**trial(seed), key: bad}, seeds,
                             metrics, info, fixed)
        _, compare, threshold = fixed[key]
        return run_suite(name, trial, seeds, metrics, info,
                         {**fixed, key: (bad, compare, threshold)})

    monkeypatch.setattr(verify, "_run_suite", spoiled)
    result = SUITES[suite]()
    assert result[key] != observed[suite][key]
    assert result["passed"] is False


# -- trials that share one factorization return what the public routes do --

def _bits(values):
    """Exact float identity, -0.0 apart from 0.0."""
    return [tuple(float(v).hex() for v in pair) for pair in values]


@pytest.mark.parametrize("shape", [(6, 4, 4), (4, 7, 3), (5, 5, 2), (3, 3, 1)])
def test_shared_factor_gamma_sequence_is_bit_identical(shape):
    rows, cols, rank = shape
    gamma_target = 0.4 if rank > 1 else 1.1
    t = random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=gamma_target,
                                norm_target=1.1, seed=rows * cols))
    alpha = 1.3 * reduced_min_modulus(t)
    pr = pseudoinverse(t)
    direction = _s_alpha_direction(t, DEFAULT_TOL)
    shared, public = [], []
    for n in range(1, 21):
        s = (alpha / n) * direction
        assert s.tobytes() == s_alpha(t, alpha / n).tobytes()
        shared.append(_gamma_continuity(_Pair(t, s, DEFAULT_TOL, pr)))
        public.append(gamma_continuity_bound(t, s_alpha(t, alpha / n)))
    assert _bits(shared) == _bits(public)


def _captured_trial(monkeypatch, suite):
    """The trial closure and seeds a suite hands to the driver."""
    captured = {}
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_run_suite", lambda name, trial, seeds, *a, **k:
                   captured.update(trial=trial, seeds=seeds))
        suite()
    return captured["trial"], captured["seeds"]


# Reference trials on public routes only: each suite's trial, which shares
# factorizations between routes, must match its reference bit for bit.

def _public_mp_trial(trial_seed):
    rng = np.random.default_rng(trial_seed)
    rows = int(rng.integers(1, MAX_DIM + 1))
    cols = int(rng.integers(1, MAX_DIM + 1))
    top = min(rows, cols)
    mode = int(rng.integers(0, 10))
    rank = 0 if mode == 0 else top if mode <= 4 else int(rng.integers(1, top + 1))
    t = verify._draw_operator(rng, rows, cols, rank, 0.1, 1.0, 30.0)
    pr = pseudoinverse(t)
    norm_t = float(pr.sigma[0])
    norm_td = spectral_norm(pr.pinv)
    scale = max(1.0, norm_t, norm_td)
    ax = verify_mp_axioms(t, pr.pinv)
    ta = adjoint(t)
    gram_direct = pseudoinverse(ta @ t).pinv
    return {
        "worst_axiom_residual_rel": max(ax.residual_tTt, ax.residual_tdTtd,
                                        ax.residual_sym1, ax.residual_sym2) / scale,
        "worst_double_pinv_rel": spectral_norm(pseudoinverse(pr.pinv).pinv - t)
        / max(1.0, norm_t),
        "worst_adjoint_pinv_rel": spectral_norm(pseudoinverse(ta).pinv - adjoint(pr.pinv))
        / max(1.0, norm_td),
        "worst_gram_identity_rel": spectral_norm(gram_direct - pr.pinv @ pseudoinverse(ta).pinv)
        / max(1.0, spectral_norm(gram_direct)),
        "worst_gamma_identity_dev": abs(norm_td * reduced_min_modulus(t) - 1.0)
        if pr.rank else 0.0,
    }


def _public_stewart_trial(trial_seed):
    rng = np.random.default_rng(trial_seed)
    rows = int(rng.integers(2, MAX_DIM + 1))
    cols = int(rng.integers(2, MAX_DIM + 1))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    t = verify._draw_operator(rng, rows, cols, rank, 0.3, 1.2, 4.0)
    pr_t = pseudoinverse(t)
    norm_td = spectral_norm(pr_t.pinv)
    s = s_alpha(t, (float(rng.uniform(0.0, 1.0)) or 0.5) * 2.0 / norm_td)
    res = update_stewart(t, s)
    pr_sum = pseudoinverse(t + s)
    right = solve_from_right(pr_t.pinv, np.eye(rows, dtype=np.complex128) + s @ pr_t.pinv)
    bound = error_bound_stewart(t, s)
    measured = spectral_norm(pr_sum.pinv - pr_t.pinv)
    return {
        "worst_oracle_rel": res.oracle_discrepancy / norm_td,
        "worst_left_right_rel": spectral_norm(res.pinv_updated - right) / max(1.0, norm_td),
        "rank_mismatches": pr_sum.rank != pr_t.rank,
        "worst_null_gap": principal_angle_gap(null_space_basis(t), null_space_basis(t + s)),
        "worst_bound_excess": measured - bound,
        "best_bound_exercise_ratio": measured / bound if bound > 0.0 else 0.0,
    }


def _public_relative_trial(trial_seed):
    rng = np.random.default_rng(trial_seed)
    rows = int(rng.integers(1, MAX_DIM + 1))
    cols = int(rng.integers(rows, MAX_DIM + 1))
    t = verify._draw_operator(rng, rows, cols, rows, 0.3, 1.2, 4.0)
    lam = 0.0 if rng.uniform() < 0.05 else float(rng.uniform(0.0, 0.9))
    s = random_relative_perturbation(t, lam, int(rng.integers(0, 2**62)))
    res = update_relative_surjective(t, s, lam, 0.0)
    pr_t = pseudoinverse(t)
    pr_sum = pseudoinverse(t + s)
    norm_td = spectral_norm(pr_t.pinv)
    scaled = (1.0 - lam) * pr_t.gamma
    return {
        "worst_oracle_rel": res.oracle_discrepancy / max(1.0, norm_td),
        "worst_norm_cap_excess": spectral_norm(pr_sum.pinv) - norm_td / (1.0 - lam),
        "worst_bound_excess": spectral_norm(pr_sum.pinv - pr_t.pinv)
        - error_bound_lambda2_zero(t, s),
        "worst_corrected_gamma_violation": scaled - pr_sum.gamma,
        "printed_gamma_direction_failures": pr_sum.gamma > scaled + verify.BOUND_SLACK,
    }


def _public_gamma_steps(trial_seed, seq_len=20):
    """The (achieved, bound) steps of one gamma-continuity trial."""
    rng = np.random.default_rng(trial_seed)
    rows = int(rng.integers(2, MAX_DIM + 1))
    cols = int(rng.integers(2, MAX_DIM + 1))
    rank = int(rng.integers(1, min(rows, cols) + 1))
    t = verify._draw_operator(rng, rows, cols, rank, 0.3, 1.2, 3.0)
    alpha = float(rng.uniform(0.05, 0.95)) * 2.0 * reduced_min_modulus(t)
    return [gamma_continuity_bound(t, s_alpha(t, alpha / n)) for n in range(1, seq_len + 1)]


@pytest.mark.parametrize("suite, reference", [
    ("mp_axioms", _public_mp_trial),
    ("stewart_update", _public_stewart_trial),
    ("relative_update", _public_relative_trial),
])
def test_trial_matches_public_routes(monkeypatch, suite, reference):
    trial, seeds = _captured_trial(monkeypatch, SUITES[suite])
    for seed in seeds:
        got, want = trial(seed), reference(seed)
        assert list(got) == list(want)
        assert _bits([got.values()]) == _bits([want.values()])


def test_gamma_trial_steps_match_public_routes(monkeypatch):
    trial, seeds = _captured_trial(monkeypatch, SUITES["gamma_continuity"])
    steps = []
    real = verify._gamma_continuity
    monkeypatch.setattr(verify, "_gamma_continuity",
                        lambda *args: steps.append(real(*args)) or steps[-1])
    for seed in seeds:
        steps.clear()
        trial(seed)
        assert _bits(steps) == _bits(_public_gamma_steps(seed))
