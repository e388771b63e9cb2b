"""Randomized invariant suites behind ``verify`` and the acceptance tests.

Each suite draws operators with prescribed spectra (bounded condition, so
numerical rank is unambiguous), runs one certified route against the direct
SVD oracle, and aggregates worst-case deviations. Trials are seeded
individually from the master seed and run in order in one thread, so results
are identical across runs.

A trial runs its routes on one ``hypotheses._Pair`` and reads what it
checks from that pair: the update trials call the pair helpers
``perturb._update_stewart`` and ``_update_relative``; the Stewart trial
reads T+S, its null bases, |(T+S)' - T'| and the closed form T'(I + ST')^-1
from its pair, and checks its S_alpha step against gamma(T) of its
factorization of T; the relative trial calls ``_error_bound_lambda2_zero``
on its pair; a gamma-continuity sequence factors T once, solves for the
S_alpha direction once (``generators._s_alpha_direction``) and runs
``_gamma_continuity`` on one pair per step, each built on that
factorization of T. The axiom trial hands ``pinv._axioms`` the |T| of its
factorization and the |T'| it measured. The Neumann trial measures the
series against the factorization of S that ``perturb._neumann`` returns,
and the reverse-order trial reads the rank and range basis of FG and the
range basis of F from the factorizations ``reverse_order._reverse_order``
returns. An operator is factored twice only in a relative trial with
S = 0, where T+S is T. Each value equals, bit for bit, what the public
route would return.

The pinned thresholds below are the acceptance contract; they are fixed
here, not derived from the configurable Tolerances.
"""

import math
from operator import eq, ge, gt, le

import numpy as np

from .generators import (
    GenSpec,
    _check_alpha,
    _s_alpha_direction,
    random_operator,
    random_relative_perturbation,
)
from .hypotheses import _Pair
from .linalg import Tolerances, _tol, adjoint, principal_angle_gap, spectral_norm
from .perturb import (
    _error_bound_lambda2_zero,
    _gamma_continuity,
    _neumann,
    _update_relative,
    _update_stewart,
)
from .pinv import _axioms, pseudoinverse, reduced_min_modulus
from .reverse_order import _reverse_order, check_rol_hypotheses

AXIOM_REL = 1e-9
IDENTITY_REL = 1e-9
GAMMA_IDENTITY_DEV = 1e-10
STEWART_ORACLE_REL = 1e-8
LEFT_RIGHT_REL = 1e-9
NULL_GAP = 1e-8
BOUND_SLACK = 1e-10
EXERCISE_RATIO = 0.25
RELATIVE_ORACLE_REL = 1e-8
ROL_REL = 1e-9
ROL_COUNTEREXAMPLE_GAP = 1e-3
MONOTONE_SLACK = 1e-12


def _trial_seeds(master_seed: int, tag: int, count: int) -> list:
    rng = np.random.default_rng((master_seed, tag))
    return [int(x) for x in rng.integers(0, 2**62, size=count)]


def _count(values) -> int:
    return sum(1 for v in values if v)


def _run_suite(name, trial, seeds, metrics, info=None, fixed=None) -> dict:
    """Run ``trial`` on each seed in order, reduce and judge its metrics.

    ``metrics`` maps each result key to ``(reduce, compare, threshold)``: the
    trial returns a value under that key, ``reduce`` (``max`` or ``_count``)
    folds the values of all trials, and the suite passes only if
    ``compare(reduced, threshold)`` holds for every key. ``fixed`` maps keys
    to ``(value, compare, threshold)`` judged the same way without trials;
    ``info`` holds unjudged entries reported after the trial count.
    """
    rows = [trial(seed) for seed in seeds]
    result = {"name": name, "trials": len(seeds), **(info or {})}
    passed = True
    for key, (reduce, compare, threshold) in metrics.items():
        result[key] = reduce(row[key] for row in rows)
        passed = passed and compare(result[key], threshold)
    for key, (value, compare, threshold) in (fixed or {}).items():
        result[key] = value
        passed = passed and compare(value, threshold)
    result["passed"] = bool(passed)
    return result


def _draw_operator(rng, rows, cols, rank, gamma_lo, gamma_hi, kappa_hi):
    gamma = float(rng.uniform(gamma_lo, gamma_hi))
    kappa = 1.0 if rank <= 1 else float(np.exp(rng.uniform(0.0, np.log(kappa_hi))))
    spec = GenSpec(
        rows=rows,
        cols=cols,
        rank=rank,
        gamma_target=gamma,
        norm_target=gamma * kappa,
        seed=int(rng.integers(0, 2**62)),
    )
    return random_operator(spec)


def suite_mp_axioms(trials, max_dim, seed, tol: Tolerances | None = None):
    """Pseudoinverse axioms, inverse identities, and the gamma identity."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        rows = int(rng.integers(1, max_dim + 1))
        cols = int(rng.integers(1, max_dim + 1))
        top = min(rows, cols)
        mode = int(rng.integers(0, 10))
        if mode == 0:
            rank = 0
        elif mode <= 4:
            rank = top
        else:
            rank = int(rng.integers(1, top + 1))
        t = _draw_operator(rng, rows, cols, rank, 0.1, 1.0, 30.0)

        pr = pseudoinverse(t, tol)
        norm_t = float(pr.sigma[0])
        # measured, not read as 1 / gamma: worst_gamma_identity_dev tests |T'| gamma = 1
        norm_td = spectral_norm(pr.pinv)
        scale = max(1.0, norm_t, norm_td)
        ax = _axioms(t, pr.pinv, norm_t, norm_td, tol)
        worst_axiom = max(
            ax.residual_tTt, ax.residual_tdTtd, ax.residual_sym1, ax.residual_sym2
        ) / scale

        ta = adjoint(t)
        back = pseudoinverse(pr.pinv, tol).pinv
        invol = spectral_norm(back - t) / max(1.0, norm_t)
        pinv_ta = pseudoinverse(ta, tol).pinv
        adj = spectral_norm(pinv_ta - adjoint(pr.pinv)) / max(1.0, norm_td)
        gram_direct = pseudoinverse(ta @ t, tol).pinv
        gram_factored = pr.pinv @ pinv_ta
        gram = spectral_norm(gram_direct - gram_factored) / max(
            1.0, spectral_norm(gram_direct)
        )
        gamma_dev = 0.0
        if pr.rank:
            gamma_dev = abs(norm_td * reduced_min_modulus(t, tol) - 1.0)
        return {
            "worst_axiom_residual_rel": worst_axiom,
            "worst_double_pinv_rel": invol,
            "worst_adjoint_pinv_rel": adj,
            "worst_gram_identity_rel": gram,
            "worst_gamma_identity_dev": gamma_dev,
        }

    return _run_suite("mp_axioms", trial, _trial_seeds(seed, 1, trials), {
        "worst_axiom_residual_rel": (max, le, AXIOM_REL),
        "worst_double_pinv_rel": (max, le, IDENTITY_REL),
        "worst_adjoint_pinv_rel": (max, le, IDENTITY_REL),
        "worst_gram_identity_rel": (max, le, IDENTITY_REL),
        "worst_gamma_identity_dev": (max, le, GAMMA_IDENTITY_DEV),
    })


def suite_stewart(trials, max_dim, seed, tol: Tolerances | None = None):
    """Stewart update vs oracle plus error-bound domination on the same pairs."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        rows = int(rng.integers(2, max_dim + 1))
        cols = int(rng.integers(2, max_dim + 1))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        t = _draw_operator(rng, rows, cols, rank, 0.3, 1.2, 4.0)
        pr_t = pseudoinverse(t, tol)
        norm_td = spectral_norm(pr_t.pinv)
        u = float(rng.uniform(0.0, 1.0)) or 0.5
        alpha = u * 2.0 / norm_td
        # s_alpha(t, alpha) bit for bit, its admissibility read from gamma(T)
        # of the factorization: only that check reads gamma
        _check_alpha(alpha, pr_t.gamma)
        s = alpha * _s_alpha_direction(t, tol)

        pair = _Pair(t, s, tol, pr_t)
        res = _update_stewart(pair)
        bound = res.bound_apriori  # _error_bound_stewart(pair)
        measured = pair.norm_pinv_diff
        return {
            "worst_oracle_rel": res.oracle_discrepancy / norm_td,
            "worst_left_right_rel": spectral_norm(res.pinv_updated - pair.closed_form)
            / max(1.0, norm_td),
            "rank_mismatches": pair.pr_sum.rank != pr_t.rank,
            "worst_null_gap": principal_angle_gap(pr_t.null_basis, pair.pr_sum.null_basis, tol),
            "worst_bound_excess": measured - bound,
            "best_bound_exercise_ratio": measured / bound if bound > 0.0 else 0.0,
        }

    return _run_suite("stewart_update", trial, _trial_seeds(seed, 2, trials), {
        "worst_oracle_rel": (max, le, STEWART_ORACLE_REL),
        "worst_left_right_rel": (max, le, LEFT_RIGHT_REL),
        "rank_mismatches": (_count, eq, 0),
        "worst_null_gap": (max, le, NULL_GAP),
        "worst_bound_excess": (max, le, BOUND_SLACK),
        "best_bound_exercise_ratio": (max, ge, EXERCISE_RATIO),
    })


def suite_relative(trials, max_dim, seed, tol: Tolerances | None = None):
    """Surjective relative updates, norm caps, and the gamma-direction regression."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        rows = int(rng.integers(1, max_dim + 1))
        cols = int(rng.integers(rows, max_dim + 1))
        t = _draw_operator(rng, rows, cols, rows, 0.3, 1.2, 4.0)
        lam = 0.0 if rng.uniform() < 0.05 else float(rng.uniform(0.0, 0.9))
        s = random_relative_perturbation(t, lam, int(rng.integers(0, 2**62)))

        pair = _Pair(t, s, tol)
        res = _update_relative(pair, lam, 0.0)
        pr_t, pr_sum = pair.pr_t, pair.pr_sum
        norm_td = spectral_norm(pr_t.pinv)
        cap = norm_td / (1.0 - lam)
        bound = _error_bound_lambda2_zero(pair)
        measured = pair.norm_pinv_diff
        scaled = (1.0 - lam) * pr_t.gamma
        return {
            "worst_oracle_rel": res.oracle_discrepancy / max(1.0, norm_td),
            "worst_norm_cap_excess": spectral_norm(pr_sum.pinv) - cap,
            "worst_bound_excess": measured - bound,
            "worst_corrected_gamma_violation": scaled - pr_sum.gamma,
            "printed_gamma_direction_failures": pr_sum.gamma > scaled + BOUND_SLACK,
        }

    return _run_suite("relative_update", trial, _trial_seeds(seed, 3, trials), {
        "worst_oracle_rel": (max, le, RELATIVE_ORACLE_REL),
        "worst_norm_cap_excess": (max, le, BOUND_SLACK),
        "worst_bound_excess": (max, le, BOUND_SLACK),
        "worst_corrected_gamma_violation": (max, le, BOUND_SLACK),
        "printed_gamma_direction_failures": (_count, ge, 1),
    })


def suite_neumann(trials, max_dim, seed, tol: Tolerances | None = None):
    """Truncated-series pseudoinverse against its geometric certification."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        rows = int(rng.integers(1, max_dim + 1))
        cols = int(rng.integers(rows, max_dim + 1))
        t = _draw_operator(rng, rows, cols, rows, 0.3, 1.2, 3.0)
        rho = float(rng.uniform(0.1, 0.9))
        w = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
        d0 = w @ t
        d = (rho / spectral_norm(w)) * d0
        s = t + d

        res, pr_s = _neumann(_Pair(t, s - t, tol), s, None, 10_000)  # neumann_pinv's defaults
        final_err = spectral_norm(res.pinv_s - pr_s.pinv)
        cap = math.ceil(math.log(1e-12) / math.log(res.ratio)) + 2
        return {
            "worst_tail_excess": final_err - res.residual_bound,
            "trials_over_term_cap": res.terms_used > cap,
            "unconverged_trials": not res.converged,
        }

    return _run_suite("neumann_series", trial, _trial_seeds(seed, 4, trials), {
        "worst_tail_excess": (max, le, BOUND_SLACK),
        "trials_over_term_cap": (_count, eq, 0),
        "unconverged_trials": (_count, eq, 0),
    })


def suite_reverse_order(trials, max_dim, seed, tol: Tolerances | None = None):
    """Three-way reverse-order agreement plus the fixed counterexample."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        k = int(rng.integers(1, max(2, max_dim // 2)))
        m = int(rng.integers(k, max_dim + 1))
        n = int(rng.integers(k, max_dim + 1))
        f = _draw_operator(rng, m, k, k, 0.4, 1.0, 3.0)
        g = _draw_operator(rng, k, n, k, 0.4, 1.0, 3.0)
        fp, pr_f, pr_a = _reverse_order(f, g, tol)
        range_gap = principal_angle_gap(pr_a.u[:, :pr_a.rank], pr_f.u[:, :pr_f.rank], tol)
        return {
            "worst_three_way_rel": fp.max_pairwise_discrepancy
            / max(1.0, spectral_norm(fp.pinv_oracle)),
            "rank_mismatches": pr_a.rank != k,
            "worst_range_gap": range_gap,
        }

    # fixed hypothesis-violating fixture: F drops full column rank and the
    # law visibly fails
    f0 = np.array([[1.0, 1.0]])
    g0 = np.array([[1.0, 0.0], [0.0, 2.0]])
    counterexample_gap = spectral_norm(
        pseudoinverse(f0 @ g0, tol).pinv
        - pseudoinverse(g0, tol).pinv @ pseudoinverse(f0, tol).pinv
    )
    hypotheses_reject = not check_rol_hypotheses(f0, g0, tol)

    return _run_suite(
        "reverse_order_law",
        trial,
        _trial_seeds(seed, 5, trials),
        {
            "worst_three_way_rel": (max, le, ROL_REL),
            "rank_mismatches": (_count, eq, 0),
            "worst_range_gap": (max, le, NULL_GAP),
        },
        fixed={
            "counterexample_gap": (counterexample_gap, gt, ROL_COUNTEREXAMPLE_GAP),
            "counterexample_rejected": (hypotheses_reject, eq, True),
        },
    )


def suite_gamma_continuity(n_ops, seq_len, max_dim, seed, tol: Tolerances | None = None):
    """gamma(T + S/n) -> gamma(T) monotonically, dominated by the beta bound."""
    tol = _tol(tol)

    def trial(trial_seed):
        rng = np.random.default_rng(trial_seed)
        rows = int(rng.integers(2, max_dim + 1))
        cols = int(rng.integers(2, max_dim + 1))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        t = _draw_operator(rng, rows, cols, rank, 0.3, 1.2, 3.0)
        # alpha is drawn from the values-only gamma(T); pr.gamma below may
        # differ from it in the last bit, which would move every alpha
        gamma = reduced_min_modulus(t, tol)
        alpha = float(rng.uniform(0.05, 0.95)) * 2.0 * gamma
        # step n is gamma_continuity_bound(t, s_alpha(t, alpha / n)) bit for bit,
        # on one factorization of T and one solve for the S_alpha direction;
        # every alpha / n lies in (0, alpha], so one admissibility check covers all
        _check_alpha(alpha, gamma)
        direction = _s_alpha_direction(t, tol)
        pr = pseudoinverse(t, tol)

        achieved, bounds = [], []
        worst_excess = -np.inf
        mono_violation = -np.inf
        for n in range(1, seq_len + 1):
            a, b = _gamma_continuity(_Pair(t, (alpha / n) * direction, tol, pr))
            worst_excess = max(worst_excess, a - b)
            if achieved:
                mono_violation = max(
                    mono_violation, a - achieved[-1], b - bounds[-1]
                )
            achieved.append(a)
            bounds.append(b)
        decay_ok = (
            achieved[-1] <= achieved[0] / 5.0 + MONOTONE_SLACK
            and bounds[-1] <= bounds[0] / 5.0 + MONOTONE_SLACK
        )
        return {
            "worst_bound_excess": worst_excess,
            "worst_monotonicity_violation": mono_violation,
            "decay_failures": not decay_ok,
        }

    return _run_suite(
        "gamma_continuity",
        trial,
        _trial_seeds(seed, 6, n_ops),
        {
            "worst_bound_excess": (max, le, BOUND_SLACK),
            "worst_monotonicity_violation": (max, le, MONOTONE_SLACK),
            "decay_failures": (_count, eq, 0),
        },
        info={"sequence_length": seq_len},
    )


def suite_typo_regressions(seed, tol: Tolerances | None = None):
    """Rectangular regression: theorem-form update works, intro form cannot.

    For surjective T with rows < cols the pseudoinverse is cols x rows while
    (I + pinv(T) S) is cols x cols, so the intro's right-multiplied variant
    does not even conform; the theorem's T'(I + S T')^-1 must match the
    oracle.
    """
    tol = _tol(tol)
    rng = np.random.default_rng((seed, 7))
    t = random_operator(
        GenSpec(rows=2, cols=5, rank=2, gamma_target=0.5, norm_target=1.0,
                seed=int(rng.integers(0, 2**62)))
    )
    s = random_relative_perturbation(t, 0.4, int(rng.integers(0, 2**62)))
    pair = _Pair(t, s, tol)
    td = pair.pr_t.pinv
    intro_inner_dim = (np.eye(5, dtype=td.dtype) + td @ s).shape[0]
    ill_formed = td.shape[1] != intro_inner_dim

    res = _update_relative(pair, 0.4, 0.0)
    oracle_rel = res.oracle_discrepancy / max(1.0, spectral_norm(td))
    passed = ill_formed and oracle_rel <= RELATIVE_ORACLE_REL
    return {
        "name": "typo_regressions",
        "intro_formula_ill_formed": bool(ill_formed),
        "theorem_form_oracle_rel": oracle_rel,
        "passed": bool(passed),
    }


def run_verification(
    trials: int = 200,
    seed: int = 0,
    max_dim: int = 20,
    tol: Tolerances | None = None,
):
    """Run every suite; returns (ordered verdict dict, overall pass flag).

    Refuses ``trials < 1`` and ``max_dim < 2`` with ``ValueError`` before
    any trial runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials}")
    if max_dim < 2:
        raise ValueError(f"max_dim must be at least 2, got {max_dim}")
    tol = _tol(tol)
    suites = [
        suite_mp_axioms(trials, max_dim, seed, tol),
        suite_stewart(trials, max_dim, seed, tol),
        suite_relative(trials, max_dim, seed, tol),
        suite_neumann(trials, max_dim, seed, tol),
        suite_reverse_order(trials, max_dim, seed, tol),
        suite_gamma_continuity(max(10, trials // 10), 20, max_dim, seed, tol),
        suite_typo_regressions(seed, tol),
    ]
    verdicts = {}
    for result in suites:
        result = dict(result)
        verdicts[result.pop("name")] = result
    return verdicts, all(v["passed"] for v in verdicts.values())
