"""The verify suites' result layout and the pinned thresholds that gate them."""

import numpy as np
import pytest

from pinvperturb import verify

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
