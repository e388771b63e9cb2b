"""Closed-form perturbed pseudoinverses and a-priori error bounds.

Every update route first verifies its hypotheses (refusing with a typed
error when they fail), then computes the closed form, and finally checks the
rank, bounds and identities its theorem certifies for the result through the
pair's post-conditions; a failed one is an :class:`InvariantViolation`, never
a silent fallback. The Stewart and relative updates also confirm their
result against the SVD oracle of T+S at the scale of max(|result|, |T'|),
and report as ``oracle_discrepancy`` the distance that check measured; they
measure it themselves only when its bounds decided without it.

Each route and bound declares the shared hypotheses it needs as a tuple of
condition names (``_STEWART``, the cases of ``_DH_CASES``, ...) and refuses
through ``_Pair.require``, which tests and words each condition in one
place; the ratio of :func:`neumann_pinv` is ``norm_STd`` on its pair
(T, S - T). Only the condition no other route shares is refused here: the
relative bound of :func:`update_relative_surjective`.

Each route reads (T, S) through one ``hypotheses._Pair``, which measures
every quantity of the pair once. Every update, bound and series function
builds the pair and hands it to its private helper (``_update_stewart``,
``_update_relative``, ``_neumann``, ``_error_bound_stewart``, ...), which
takes only the pair and its own route parameters, so a caller that runs
several routes on one pair, like ``bounds`` or ``verify``, builds one pair
for all. ``_neumann`` also returns the factorization of S that is its
oracle, for ``verify`` to read. Both updates end in :func:`_updated`, and
the closed form T'(I + ST')^-1 is solved once, as ``_Pair.closed_form``.

Every norm a route returns or compares is the pair's own reading
(``norm_s``, ``norm_tds``, ``norm_std``) or a ``spectral_norm``, one
Hermitian eigenvalue solve on a Gram matrix; none is read from a singular
vector factorization. Where a measured norm is widened to bound the exact
one (the Neumann ratio and term norms, the shifted solves) the allowance is
``linalg._norm_room``, which covers the Gram rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisRefusal, InvariantViolation
from .hypotheses import _STEWART, _check_lambdas, _Pair, _relative_bound
from .linalg import (
    _EPS,
    Tolerances,
    _confirm_near,
    _norm_bounds,
    _norm_room,
    _pair,
    _room,
    _solve_shifted,
    spectral_norm,
)
from .pinv import PinvResult, _norm_pinv, pseudoinverse


@dataclass(frozen=True)
class UpdateResult:
    """A perturbed pseudoinverse from a closed-form update.

    method is ``stewart_left`` or ``relative_surjective``. bound_apriori
    (when the route has one) dominates the true change |(T+S)' - T'|.
    oracle_discrepancy measures the update against the direct SVD
    pseudoinverse of T+S; a route raises :class:`InvariantViolation` rather
    than return an update farther than ``eq(max(|update|, |T'|))`` from it.
    """

    pinv_updated: np.ndarray
    method: str
    bound_apriori: float | None
    oracle_discrepancy: float
    norms_used: dict


@dataclass(frozen=True)
class NeumannResult:
    """Truncated-series pseudoinverse with its certified geometric tail.

    ratio is |(S - T)T'|, measured as the pair's ``norm_std`` (a Gram
    eigenvalue; no singular vectors are formed for it).
    residual_bound = |T'| * ratio**terms_used / (1 - ratio) bounds the
    truncation error whether or not the series reached eps_series;
    converged records whether it did. |T'| is read as 1 / gamma(T).

    last_term_norm is the measured spectral norm of the last summed term
    (|T'| read as 1 / gamma when only T' was summed).

    Every partial sum was checked to lie within its own tail of the direct
    oracle. An order k is certified by the bound
    ``err_K + sum_{j=k}^{K-1} u_j + 2 eps K (sqrt(min(m, n)) + 1) |T'| / (1 - ratio)``
    on its error, where ``err_K`` bounds the oracle error at the last order
    K and ``u_j`` the norm of term j. ``u_j`` is the smaller of the term's
    Frobenius norm and ``u_{j-1}`` times the ratio plus the rounding of the
    product, each with an eps-level allowance; the stopping rule decides
    ``|term| < eps_series`` from these bounds and measures a term only when
    they cannot decide. ``err_K`` is first its Frobenius bound and is
    measured exactly only if that leaves an order uncertified; orders the
    exact ``err_K`` still cannot certify are measured exactly on a replay
    of the series.
    """

    pinv_s: np.ndarray
    terms_used: int
    last_term_norm: float
    ratio: float
    residual_bound: float
    converged: bool


@dataclass(frozen=True)
class DingHuangBounds:
    """Case-specific norm bounds on the perturbed pseudoinverse."""

    case: str
    pinv_norm_bound: float
    pinv_diff_bound: float | None
    measured_pinv_norm: float
    measured_pinv_diff: float


def update_stewart(t, s, tol: Tolerances | None = None) -> UpdateResult:
    """Perturbed pseudoinverse (T+S)' = (I + T'S)^-1 T' = T' (I + S T')^-1.

    Requires the Stewart hypotheses (strict norm condition plus both
    inclusions); refuses naming the failing condition otherwise. Both forms
    are computed and must agree, the recovery identity
    T' = (T+S)'(I + S T') is verified, and the returned left form must agree
    with the direct oracle; its distance from the oracle is reported.
    """
    return _update_stewart(_Pair(t, s, tol))


def _update_stewart(pair: _Pair) -> UpdateResult:
    """:func:`update_stewart` on ``pair``."""
    pair.require("Stewart update", *_STEWART)
    td = pair.pr_t.pinv
    left = _solve_shifted(pair.tds, td, pair.norm_tds, pair.tol)
    _confirm_near("Stewart update", "‖(I + T†S)⁻¹T† - T†(I + ST†)⁻¹‖", left, pair.closed_form,
                  pair.tol)
    pair.confirm_near("Stewart update", "‖(T+S)†(I + ST†) - T†‖",
                      left @ (np.eye(pair.mt.shape[0], dtype=pair.std.dtype) + pair.std), td)
    return _updated(pair, "Stewart update", "‖(I + T†S)⁻¹T† - (T+S)†‖", left, "stewart_left",
                    _error_bound_stewart(pair))


def update_relative_surjective(
    t, s, lambda1: float, lambda2: float, tol: Tolerances | None = None
) -> UpdateResult:
    """Perturbed pseudoinverse (T+S)' = T' (I + S T')^-1 for surjective T.

    Requires T surjective and the relative bound
    |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x| with lambda1 < 1, certified
    exactly from |ST'| when N(T) lies in N(S) and verified by sampling
    otherwise (``hypotheses._relative_bound``). Asserts that T+S stays
    surjective, that
    |(T+S)'| <= (1 + lambda2) / (1 - lambda1) * |T'|, and that the result
    agrees with the direct oracle. With lambda2 = 0 and |S T'| < 1 with the
    strict margin, bound_apriori is the bound of :func:`error_bound_lambda2_zero`.
    """
    return _update_relative(_Pair(t, s, tol), lambda1, lambda2)


def _update_relative(pair: _Pair, lambda1: float, lambda2: float) -> UpdateResult:
    """:func:`update_relative_surjective` on ``pair``."""
    pair.require("relative update", "surjective")
    _check_lambdas(lambda1, lambda2)
    # factored before the relative bound, whose sampler then reads its right vectors
    oracle_res = pair.pr_sum
    ok, worst = _relative_bound(pair, lambda1, lambda2)
    if not ok:
        raise HypothesisRefusal("relative update refused: bound ‖Sx‖ ≤ λ₁‖Tx‖ + λ₂‖(T+S)x‖"
                                f" fails (worst slack {worst:.3e})", condition="relative_bound")

    updated = pair.closed_form
    pair.keeps_rank("relative update", pair.mt.shape[0])
    pair.confirm("relative update", "‖(T+S)†‖", _norm_pinv(oracle_res),
                 (1.0 + lambda2) / (1.0 - lambda1) * _norm_pinv(pair.pr_t))
    norm_std = pair.norm_std
    bound = _apriori_bound(pair, norm_std) if lambda2 == 0.0 and pair.strict(norm_std) else None
    return _updated(pair, "relative update", "‖T†(I + ST†)⁻¹ - (T+S)†‖", updated,
                    "relative_surjective", bound)


def _updated(pair: _Pair, route: str, what: str, updated: np.ndarray, method: str,
             bound: float | None) -> UpdateResult:
    """The :class:`UpdateResult` of an update route, once ``updated`` is
    confirmed against the oracle ``(T+S)'``; ``what`` names their distance,
    which is measured here only when the check decided without it."""
    oracle = pair.pr_sum.pinv
    discrepancy = pair.confirm_near(route, what, updated, oracle)
    return UpdateResult(
        pinv_updated=updated,
        method=method,
        bound_apriori=bound,
        oracle_discrepancy=(spectral_norm(updated - oracle) if discrepancy is None
                            else discrepancy),
        norms_used={"norm_TdS": pair.norm_tds, "norm_STd": pair.norm_std,
                    "norm_S": pair.norm_s, "norm_Td": _norm_pinv(pair.pr_t)},
    )


def neumann_pinv(
    t,
    s,
    eps_series: float | None = None,
    max_terms: int = 10_000,
    tol: Tolerances | None = None,
) -> NeumannResult:
    """Pseudoinverse of S as the series T' * sum_n (-(S - T) T')^n.

    Valid for surjective T when N(T) is contained in N(S - T) and the ratio
    |(S - T) T'| is below 1 with the strict margin (``norm_STd`` of the pair
    (T, S - T)); then the minimal lambda1 for the difference equals the
    ratio and the alternating series converges geometrically to
    S' = T' (I + (S - T) T')^-1. Terms accumulate until the next term drops
    below eps_series (default 1e-12 * |T'|) or max_terms is hit; a
    non-finite or non-positive eps_series and a max_terms below 1 are
    refused with ``ValueError`` before anything is factored. The null
    inclusion gives S - T = ((S - T) T') T, so the relative bound
    |(S - T)x| <= ratio |Tx| holds for every x and needs no check of its
    own; the refusals of the shared conditions name S - T as the
    perturbation, which their quantities read as S. Every partial sum is
    then certified against the direct oracle within its geometric tail, from
    one measured oracle error at the final order (see
    :class:`NeumannResult`), and the sum against the closed form.
    """
    mt, ms = _pair(t, s)
    if max_terms < 1:
        raise ValueError("max_terms must be a positive integer")
    if eps_series is not None and not 0.0 < float(eps_series) < math.inf:
        raise ValueError(f"eps_series must be finite and positive, got {eps_series}")
    return _neumann(_Pair(mt, ms - mt, tol), ms, eps_series, max_terms)[0]


def _neumann(pair: _Pair, ms: np.ndarray, eps_series: float | None,
             max_terms: int) -> tuple[NeumannResult, PinvResult]:
    """:func:`neumann_pinv` on ``pair``, the pair (T, S - T) of ``ms = S``;
    also returns the factorization of S, whose pinv is the oracle."""
    pair.require("Neumann inversion (with S − T as the perturbation)",
                 "surjective", "norm_STd", "null_inclusion")
    tol, prt = pair.tol, pair.pr_t
    rows = pair.mt.shape[0]
    td = prt.pinv
    norm_td = _norm_pinv(prt)
    step = pair.std
    ratio = pair.norm_std

    eps = 1e-12 * norm_td if eps_series is None else float(eps_series)
    # T + (S - T) is S only up to rounding: the oracle factors S itself
    pr_s = pseudoinverse(ms, tol)
    oracle = pr_s.pinv

    def tail(k):
        return norm_td * ratio**k / (1.0 - ratio)

    # the stopping rule and the order certificate read certified bounds on
    # the term norms (_term_bounds); a term is measured only when its
    # bounds cannot decide |term| < eps
    ratio_hi = ratio * (1.0 + _norm_room(step.shape))
    # |fl(AB) - AB| <= sqrt(2) gamma_{k+2} |A||B| entrywise for complex
    # products with inner dimension k = rows (Higham ch. 3), at most
    # (rows + 2) eps |A|_F |B|_F in norm
    rounding = (rows + 2) * _EPS * _norm_bounds(step)[1]
    term = td
    total = td.copy()
    term_bounds = [norm_td * (1.0 + _room(td.shape))]  # partial sums are not kept
    fro = _norm_bounds(td)[1]
    last_norm = norm_td  # measured norm of the last summed term, None if not measured
    converged = False
    while True:
        nxt = -(term @ step)
        lo, hi, fro_nxt = _term_bounds(nxt, term_bounds[-1], fro, ratio_hi, rounding)
        norm_nxt = None
        if hi < eps:
            stop = True
        elif lo >= eps:
            stop = False
        else:
            norm_nxt = spectral_norm(nxt)
            stop = norm_nxt < eps
            hi = min(hi, norm_nxt * (1.0 + _norm_room(nxt.shape)))
        if stop:
            converged = True
            break
        if len(term_bounds) >= max_terms:
            break
        term = nxt
        total = total + term
        term_bounds.append(hi)
        fro, last_norm = fro_nxt, norm_nxt

    terms_used = len(term_bounds)
    if last_norm is None:
        last_norm = spectral_norm(term)
    diff = total - oracle
    orders = (term_bounds, pair, tail, ratio)
    certified = _certify_orders(_norm_bounds(diff)[1], *orders)
    if not all(certified):
        certified = _certify_orders(spectral_norm(diff), *orders)
        if not all(certified):
            _replay_orders(pair, oracle, certified, tail)

    residual_bound = tail(terms_used)
    pair.confirm_near("Neumann inversion", "‖series - T†(I+(S-T)T†)⁻¹‖", total,
                      pair.closed_form, residual_bound)
    return NeumannResult(
        pinv_s=total,
        terms_used=terms_used,
        last_term_norm=last_norm,
        ratio=ratio,
        residual_bound=residual_bound,
        converged=converged,
    ), pr_s


def _term_bounds(nxt, prev, prev_fro, ratio_hi, rounding) -> tuple[float, float, float]:
    """Bounds ``(lo, hi, fro)`` on the next Neumann term ``nxt = -(term @ step)``.

    ``lo <= spectral_norm(nxt) <= hi``, and ``hi`` also bounds the exact
    norm of ``nxt``: it is the smaller of the Frobenius bound and
    ``prev * ratio_hi + rounding * prev_fro``, widened by the rounding
    allowance, where ``prev`` bounds the norm of ``term``, ``ratio_hi``
    that of ``step``, ``prev_fro`` the Frobenius norm of ``term`` and
    ``rounding * prev_fro`` the rounding of the product. ``fro`` bounds the
    Frobenius norm of ``nxt``.
    """
    lo, fro = _norm_bounds(nxt)
    grown = (prev * ratio_hi + rounding * prev_fro) * (1.0 + _room(nxt.shape))
    return lo, min(fro, grown), fro


def _certify_orders(err, term_norms, pair, tail, ratio) -> list:
    """Which orders k provably pass ``pair.within(|total_k - oracle|, tail(k), 0.0)``.

    With K summed terms, ``err >= |total_K - oracle|`` and ``term_norms[j]
    >= |term_j|``, the triangle inequality gives ``|total_k - oracle| <= err
    + sum_{j=k}^{K-1} term_norms[j]`` plus the rounding of the partial-sum
    additions, which is allowed for as ``2 eps K (sqrt(min(m, n)) + 1) |T'|
    / (1 - ratio)``. An order whose bound is not below its tail is left to
    :func:`_replay_orders`.
    """
    n_terms = len(term_norms)
    rounding = (2.0 * _EPS * n_terms * (math.sqrt(min(pair.mt.shape)) + 1.0)
                * _norm_pinv(pair.pr_t) / (1.0 - ratio))
    certified = []
    later = 0.0  # sum of |term_j| for j = k .. K-1
    for k in range(n_terms, 0, -1):
        certified.append(pair.within(err + later + rounding, tail(k), 0.0))
        later += term_norms[k - 1]
    return certified[::-1]


def _replay_orders(pair, oracle, certified, tail) -> None:
    """Rebuild the partial sums and measure every order not certified.

    Raises at the first order whose measured error exceeds its tail, with
    the message of the per-order check; the sums are rebuilt with the same
    operations, so they are bit-identical to the first pass.
    """
    last = max(k for k, ok in enumerate(certified, start=1) if not ok)
    term = pair.pr_t.pinv
    total = term.copy()
    for k in range(1, last + 1):
        if k > 1:
            term = -(term @ pair.std)
            total = total + term
        if not certified[k - 1]:
            err = spectral_norm(total - oracle)
            if not pair.within(err, tail(k), 0.0):
                raise InvariantViolation(
                    f"Neumann partial sum after {k} terms is off by {err:.3e},"
                    f" above the certified tail {tail(k):.3e}"
                )


def error_bound_stewart(t, s, tol: Tolerances | None = None) -> float:
    """A-priori bound |S| |T'|^2 / (1 - |T'S|) on |(T+S)' - T'|.

    Refuses unless |T'S| < 1 with the strict margin, R(S) lies in R(T) and
    N(T) lies in N(S): the bound is proved under all three with |T'S| < 1,
    and the margin keeps 1 / (1 - |T'S|) from certifying a rounding-level gap.
    """
    return _error_bound_stewart(_Pair(t, s, tol))


def _error_bound_stewart(pair: _Pair) -> float:
    """:func:`error_bound_stewart` on ``pair``."""
    pair.require("error bound", *_STEWART)
    return _apriori_bound(pair, pair.norm_tds)


def error_bound_lambda2_zero(t, s, tol: Tolerances | None = None) -> float:
    """A-priori bound |T'|^2 |S| / (1 - |S T'|) for surjective T.

    Refuses unless T is surjective, |S T'| < 1 with the strict margin and
    N(T) lies in N(S). Also verifies |(I + S T')^-1| <= 1 / (1 - |S T'|) on the way.
    """
    return _error_bound_lambda2_zero(_Pair(t, s, tol))


def _error_bound_lambda2_zero(pair: _Pair) -> float:
    """:func:`error_bound_lambda2_zero` on ``pair``."""
    pair.require("error bound", "surjective", "norm_STd", "null_inclusion")
    norm_std, std = pair.norm_std, pair.std
    # the norm is measured: the Frobenius bound _norm_le reads grows like
    # sqrt(rows), and it decided this test on 3 of 15 measured pairs
    inv = _solve_shifted(std, np.eye(std.shape[0], dtype=std.dtype), norm_std, pair.tol)
    pair.confirm("error bound", "‖(I+ST†)⁻¹‖", spectral_norm(inv), 1.0 / (1.0 - norm_std))
    return _apriori_bound(pair, norm_std)


def _apriori_bound(pair: _Pair, x: float) -> float:
    """The a-priori bound |S| |T'|^2 / (1 - x) on |(T+S)' - T'|, x = |T'S| or
    |ST'|; |S| |T'| is formed first, so no step over- or underflows at a
    scale of (T, S) where the bound is a normal float."""
    norm_td = _norm_pinv(pair.pr_t)
    return (pair.norm_s * norm_td) * norm_td / (1.0 - x)


def gamma_continuity_bound(t, s, tol: Tolerances | None = None) -> tuple[float, float]:
    """(|gamma(T+S) - gamma(T)|, beta |S|) under the Stewart hypotheses.

    beta = |T'| / (|(T+S)'| (1 - |T'S|)); the achieved change is asserted
    not to exceed the bound.
    """
    return _gamma_continuity(_Pair(t, s, tol))


def _gamma_continuity(pair: _Pair) -> tuple[float, float]:
    """:func:`gamma_continuity_bound` on ``pair``; T+S is factored once the
    hypotheses hold."""
    pair.require("gamma continuity bound", *_STEWART)
    pr, pr_sum = pair.pr_t, pair.pr_sum
    achieved = abs(pr_sum.gamma - pr.gamma)
    if pair.norm_s == 0.0:
        return achieved, 0.0
    beta = _norm_pinv(pr) / (_norm_pinv(pr_sum) * (1.0 - pair.norm_tds))
    bound = beta * pair.norm_s
    pair.confirm("gamma continuity bound", "|γ(T+S) - γ(T)|", achieved, bound,
                 max(1.0, pr.gamma))
    return achieved, bound


# each case's conditions, the norm its bounds read, and the axis of T's shape
# that is the rank of T+S (None when the case fixes no rank)
_DH_CASES = {
    "injective": (("injective", "range_inclusion", "norm_TdS"), "norm_tds", 1),
    "surjective": (("surjective", "null_inclusion", "norm_STd"), "norm_std", 0),
    "general": (("null_inclusion", "norm_product"), "norm_product", None),
}


def norm_bounds_ding_huang(t, s, case: str, tol: Tolerances | None = None) -> DingHuangBounds:
    """Case-specific norm bounds on (T+S)' with oracle verification.

    injective:  R(S) in R(T), |T'S| < 1  ->  T+S injective,
                |(T+S)'| <= |T'| / (1 - |T'S|)  and
                |(T+S)' - T'| <= |T'S| |T'| / (1 - |T'S|).
    surjective: N(T) in N(S), |S T'| < 1  ->  T+S surjective, same shape of
                bounds with |S T'|.
    general:    N(T) in N(S), |S| |T'| < 1  ->
                |(T+S)'| <= |T'| / (1 - |S| |T'|)  (no difference bound).
    """
    if case not in _DH_CASES:
        raise ValueError(f"case must be one of {tuple(_DH_CASES)}, got {case!r}")
    return _ding_huang(_Pair(t, s, tol), case)


def _ding_huang(pair: _Pair, case: str) -> DingHuangBounds:
    """:func:`norm_bounds_ding_huang` on ``pair``; T+S is factored once the
    case applies."""
    conditions, norm, axis = _DH_CASES[case]
    route = f"{case} case"
    pair.require(route, *conditions)
    norm_td = _norm_pinv(pair.pr_t)
    small = getattr(pair, norm)
    norm_bound = norm_td / (1.0 - small)
    diff_bound = None if case == "general" else small * norm_td / (1.0 - small)

    if axis is not None:
        pair.keeps_rank(route, pair.mt.shape[axis])
    measured_norm = _norm_pinv(pair.pr_sum)
    measured_diff = pair.norm_pinv_diff
    pair.confirm(route, "‖(T+S)†‖", measured_norm, norm_bound)
    if diff_bound is not None:
        pair.confirm(route, "‖(T+S)† - T†‖", measured_diff, diff_bound)
    return DingHuangBounds(
        case=case,
        pinv_norm_bound=norm_bound,
        pinv_diff_bound=diff_bound,
        measured_pinv_norm=measured_norm,
        measured_pinv_diff=measured_diff,
    )
