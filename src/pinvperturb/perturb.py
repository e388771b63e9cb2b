"""Closed-form perturbed pseudoinverses and a-priori error bounds.

Every update route first verifies its hypotheses (refusing with a typed
error when they fail), then computes the closed form, and finally certifies
the result against the direct SVD pseudoinverse of the perturbed operator.
A certified-route/oracle mismatch is an :class:`InvariantViolation`, never a
silent fallback.

Each route reads (T, S) through one ``hypotheses._Pair``, which measures
every quantity of the pair once. A bound function builds the pair and hands
it to its private helper (:func:`_error_bound_stewart`,
:func:`_error_bound_lambda2_zero`, :func:`_gamma_continuity`,
:func:`_ding_huang`), which takes only the pair and its own route
parameters; a caller that runs several bounds on one pair, like ``bounds``
or the gamma-continuity sequences of ``verify``, builds one pair for all.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisRefusal, InvariantViolation, SingularMatrixError
from .hypotheses import _check_lambdas, _Pair, _relative_bound
from .linalg import (
    _EPS,
    Tolerances,
    _norm_bounds,
    _norm_le,
    _pair,
    _room,
    _solve_shifted,
    mat_close,
    spectral_norm,
)
from .pinv import _norm_pinv, pseudoinverse


@dataclass(frozen=True)
class UpdateResult:
    """A perturbed pseudoinverse from a closed-form update.

    method is one of ``stewart_left``, ``stewart_right``,
    ``relative_surjective``, ``neumann_series``. bound_apriori (when the
    route has one) dominates the true change |(T+S)' - T'|.
    oracle_discrepancy measures the update against the direct SVD
    pseudoinverse of T+S.
    """

    pinv_updated: np.ndarray
    method: str
    bound_apriori: float | None
    oracle_discrepancy: float
    norms_used: dict


@dataclass(frozen=True)
class NeumannResult:
    """Truncated-series pseudoinverse with its certified geometric tail.

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
    T' = (T+S)'(I + S T') is verified, and the returned left form is
    compared against the direct oracle.
    """
    pair = _Pair(t, s, tol)
    tol = pair.tol
    if not pair.stewart:
        if not pair.norm_tds < 1.0 - tol.margin_strict:
            raise HypothesisRefusal(
                f"Stewart update refused: ‖T†S‖ = {pair.norm_tds:.6g} ≥ 1"
                " (norm condition fails)",
                condition="norm_TdS",
            )
        _require_inclusions(pair, "Stewart update")

    td = pair.pr_t.pinv
    norm_td = _norm_pinv(pair.pr_t)
    shift_cod = np.eye(pair.mt.shape[0], dtype=np.complex128) + pair.std
    left = _solve_shifted(np.eye(pair.mt.shape[1], dtype=np.complex128) + pair.tds, td,
                          pair.norm_tds, tol)
    right = _solve_shifted(shift_cod, td, pair.norm_std, tol, right=True)
    if not mat_close(left, right, tol):
        raise InvariantViolation(
            "left and right Stewart forms disagree:"
            f" ‖L - R‖ = {spectral_norm(left - right):.3e}"
        )
    # |T'| bounds the scale max(|recovered|, |T'|) of the threshold below
    recovered = left @ shift_cod
    if not _norm_le(recovered - td, tol.eq(norm_td),
                    lambda: tol.eq(max(spectral_norm(recovered), norm_td))):
        raise InvariantViolation("recovery identity T† = (T+S)†(I + ST†) failed")

    oracle = pair.pr_sum.pinv
    bound = pair.norm_s * norm_td**2 / (1.0 - pair.norm_tds)
    return UpdateResult(
        pinv_updated=left,
        method="stewart_left",
        bound_apriori=bound,
        oracle_discrepancy=spectral_norm(left - oracle),
        norms_used={
            "norm_TdS": pair.norm_tds,
            "norm_STd": pair.norm_std,
            "norm_S": pair.norm_s,
            "norm_Td": norm_td,
        },
    )


def update_relative_surjective(
    t, s, lambda1: float, lambda2: float, tol: Tolerances | None = None
) -> UpdateResult:
    """Perturbed pseudoinverse (T+S)' = T' (I + S T')^-1 for surjective T.

    Requires T surjective and the relative bound
    |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x| with lambda1 < 1, certified
    exactly from |ST'| when N(T) lies in N(S) and verified by sampling
    otherwise (``hypotheses._relative_bound``). Asserts that T+S stays
    surjective and that
    |(T+S)'| <= (1 + lambda2) / (1 - lambda1) * |T'|.
    """
    pair = _Pair(t, s, tol)
    tol, prt = pair.tol, pair.pr_t
    rows = pair.mt.shape[0]
    if prt.rank < rows:
        raise HypothesisRefusal(
            f"relative update refused: T is not surjective (rank {prt.rank} < {rows} rows)",
            condition="surjective",
        )
    _check_lambdas(lambda1, lambda2)
    td = prt.pinv
    # factored before the relative bound, whose sampler then reads its right vectors
    oracle_res = pair.pr_sum
    ok, worst = _relative_bound(pair, lambda1, lambda2)
    if not ok:
        raise HypothesisRefusal(
            "relative update refused: bound"
            " ‖Sx‖ ≤ λ₁‖Tx‖ +"
            " λ₂‖(T+S)x‖ fails"
            f" (worst slack {worst:.3e})",
            condition="relative_bound",
        )

    norm_td = _norm_pinv(prt)
    norm_std = float(pair.f_std.sigma[0])
    try:
        updated = _solve_shifted(np.eye(rows, dtype=np.complex128) + pair.std, td,
                                 norm_std, tol, right=True)
    except SingularMatrixError as exc:
        raise InvariantViolation(
            "(I + ST†) is numerically singular although the relative bound holds:"
            f" {exc}"
        ) from exc

    if oracle_res.rank < rows:
        raise InvariantViolation(
            f"T+S lost surjectivity (rank {oracle_res.rank} < {rows})"
            " although the relative bound holds"
        )
    norm_oracle = _norm_pinv(oracle_res)
    norm_cap = (1.0 + lambda2) / (1.0 - lambda1) * norm_td
    if norm_oracle > norm_cap + tol.eq(norm_cap):
        raise InvariantViolation(
            f"‖(T+S)†‖ = {norm_oracle:.6g} exceeds the certified cap"
            f" {norm_cap:.6g}"
        )

    norm_s = float(pair.f_s.sigma[0])
    bound = None
    if lambda2 == 0.0 and norm_std < 1.0:
        bound = norm_td**2 * norm_s / (1.0 - norm_std)
    return UpdateResult(
        pinv_updated=updated,
        method="relative_surjective",
        bound_apriori=bound,
        oracle_discrepancy=spectral_norm(updated - oracle_res.pinv),
        norms_used={
            "norm_TdS": pair.norm_tds,
            "norm_STd": norm_std,
            "norm_S": norm_s,
            "norm_Td": norm_td,
        },
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
    |(S - T) T'| is below 1; then the minimal lambda1 for the difference
    equals the ratio and the alternating series converges geometrically to
    S' = T' (I + (S - T) T')^-1. Terms accumulate until the next term drops
    below eps_series (default 1e-12 * |T'|) or max_terms is hit; a
    non-finite or non-positive eps_series and a max_terms below 1 are
    refused with ``ValueError`` before anything is factored. The relative
    bound with lambda1 = ratio is certified exactly from the null inclusion
    (``hypotheses._relative_bound``); it is sampled only when that
    certificate cannot decide. Every partial sum is then certified against
    the direct oracle within its geometric tail, from one measured oracle
    error at the final order (see :class:`NeumannResult`).
    """
    mt, ms = _pair(t, s)
    if max_terms < 1:
        raise ValueError("max_terms must be a positive integer")
    if eps_series is not None and not 0.0 < float(eps_series) < math.inf:
        raise ValueError(f"eps_series must be finite and positive, got {eps_series}")
    pair = _Pair(mt, ms - mt, tol)  # T and the perturbation S - T
    tol, prt = pair.tol, pair.pr_t
    rows = mt.shape[0]
    if prt.rank < rows:
        raise HypothesisRefusal(
            f"Neumann inversion refused: T is not surjective (rank {prt.rank} < {rows})",
            condition="surjective",
        )
    td = prt.pinv
    norm_td = _norm_pinv(prt)
    step = pair.std
    ratio = float(pair.f_std.sigma[0])
    if not ratio < 1.0 - tol.margin_strict:
        raise HypothesisRefusal(
            f"Neumann inversion refused: ratio ‖(S-T)T†‖ = {ratio:.6g} ≥ 1",
            condition="ratio",
        )
    # |S - T| is read from the factorization the relative-bound check needs
    pair.norm_s = float(pair.f_s.sigma[0])
    if not pair.holds("null_inclusion"):
        _, resid_basis, resid_alg = pair.null_inclusion
        raise HypothesisRefusal(
            "Neumann inversion refused: N(T) ⊄ N(S-T)"
            f" (residual {max(resid_basis, resid_alg):.3e}), no finite λ₁ with λ₂ = 0",
            condition="null_inclusion",
        )
    # T + (S - T) is S only up to rounding: the oracle factors S itself, and
    # its right vectors supply the T+S directions of the relative-bound sampler
    pair.pr_sum = pseudoinverse(ms, tol)
    ok, worst = _relative_bound(pair, ratio, 0.0)
    if not ok:
        raise HypothesisRefusal(
            "Neumann inversion refused: relative bound"
            f" ‖(S-T)x‖ ≤ {ratio:.6g}·‖Tx‖ fails"
            f" (worst slack {worst:.3e})",
            condition="relative_bound",
        )

    eps = 1e-12 * norm_td if eps_series is None else float(eps_series)
    oracle = pair.pr_sum.pinv

    def tail(k):
        return norm_td * ratio**k / (1.0 - ratio)

    # the stopping rule and the order certificate read certified bounds on
    # the term norms (_term_bounds); a term is measured only when its
    # bounds cannot decide |term| < eps
    room = _room(td.shape)
    ratio_hi = ratio * (1.0 + room)
    # |fl(AB) - AB| <= sqrt(2) gamma_{k+2} |A||B| entrywise for complex
    # products with inner dimension k = rows (Higham ch. 3), at most
    # (rows + 2) eps |A|_F |B|_F in norm
    rounding = (rows + 2) * _EPS * _norm_bounds(step)[1]
    term = td
    total = td.copy()
    term_bounds = [norm_td * (1.0 + room)]  # partial sums are not kept
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
            hi = min(hi, norm_nxt * (1.0 + 2.0 * room))
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
    err_exact = functools.cache(lambda: spectral_norm(diff))
    err = _norm_bounds(diff)[1]
    certified = _certify_orders(err, term_bounds, tail, mt.shape, norm_td, ratio, tol.eq_abs)
    if not all(certified):
        err = err_exact()
        certified = _certify_orders(err, term_bounds, tail, mt.shape, norm_td, ratio,
                                    tol.eq_abs)
        if not all(certified):
            _replay_orders(td, step, oracle, certified, tail, tol.eq_abs)

    residual_bound = tail(terms_used)
    closed = _solve_shifted(np.eye(rows, dtype=np.complex128) + step, td, ratio, tol,
                            right=True)

    @functools.cache
    def slack():
        return residual_bound + tol.eq(max(spectral_norm(total), norm_td))

    slack_lo = residual_bound + tol.eq(norm_td)  # |T'| bounds the scale below
    if not _norm_le(total - closed, slack_lo, slack):
        raise InvariantViolation(
            "Neumann series and closed form T†(I+(S-T)T†)⁻¹ disagree"
            f" beyond the certified tail ({spectral_norm(total - closed):.3e} > {slack():.3e})"
        )
    if not (err <= slack_lo or err_exact() <= slack()):
        raise InvariantViolation(
            "Neumann series and direct pseudoinverse disagree beyond the certified tail"
        )
    return NeumannResult(
        pinv_s=total,
        terms_used=terms_used,
        last_term_norm=last_norm,
        ratio=ratio,
        residual_bound=residual_bound,
        converged=converged,
    )


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


def _certify_orders(err, term_norms, tail, shape, norm_td, ratio, eq_abs) -> list:
    """Which orders k provably pass ``|total_k - oracle| <= tail(k) + eq_abs``.

    With K summed terms, ``err >= |total_K - oracle|`` and ``term_norms[j]
    >= |term_j|``, the triangle inequality gives ``|total_k - oracle| <= err
    + sum_{j=k}^{K-1} term_norms[j]`` plus the rounding of the partial-sum
    additions, which is allowed for as ``2 eps K (sqrt(min(m, n)) + 1) |T'|
    / (1 - ratio)``. An order whose bound is not below its tail is left to
    :func:`_replay_orders`.
    """
    n_terms = len(term_norms)
    rounding = 2.0 * _EPS * n_terms * (math.sqrt(min(shape)) + 1.0) * norm_td / (1.0 - ratio)
    certified = []
    later = 0.0  # sum of |term_j| for j = k .. K-1
    for k in range(n_terms, 0, -1):
        certified.append(err + later + rounding <= tail(k) + eq_abs)
        later += term_norms[k - 1]
    return certified[::-1]


def _replay_orders(td, step, oracle, certified, tail, eq_abs) -> None:
    """Rebuild the partial sums and measure every order not certified.

    Raises at the first order whose measured error exceeds its tail, with
    the message of the per-order check; the sums are rebuilt with the same
    operations, so they are bit-identical to the first pass.
    """
    last = max(k for k, ok in enumerate(certified, start=1) if not ok)
    term = td
    total = td.copy()
    for k in range(1, last + 1):
        if k > 1:
            term = -(term @ step)
            total = total + term
        if not certified[k - 1]:
            err = spectral_norm(total - oracle)
            if err > tail(k) + eq_abs:
                raise InvariantViolation(
                    f"Neumann partial sum after {k} terms is off by {err:.3e},"
                    f" above the certified tail {tail(k):.3e}"
                )


_INCLUSIONS = {
    "range_inclusion": ("range inclusion R(S) ⊆ R(T)", "‖TT†S - S‖"),
    "null_inclusion": ("null-space inclusion N(T) ⊆ N(S)", "‖ST†T - S‖"),
}


def _require_inclusions(pair: _Pair, route: str, conditions=tuple(_INCLUSIONS)) -> None:
    """Refuse ``route`` at the first of ``conditions`` the pair fails."""
    for condition in conditions:
        if not pair.holds(condition):
            _, _, resid_alg = getattr(pair, condition)
            statement, residual = _INCLUSIONS[condition]
            raise HypothesisRefusal(f"{route} refused: {statement} fails"
                                    f" ({residual} = {resid_alg:.6g})", condition=condition)


def error_bound_stewart(t, s, tol: Tolerances | None = None) -> float:
    """A-priori bound |S| |T'|^2 / (1 - |T'S|) on |(T+S)' - T'|.

    Refuses unless |T'S| < 1, R(S) lies in R(T) and N(T) lies in N(S): the
    bound is proved under all three.
    """
    return _error_bound_stewart(_Pair(t, s, tol))


def _error_bound_stewart(pair: _Pair) -> float:
    """:func:`error_bound_stewart` on ``pair``."""
    if pair.norm_tds >= 1.0:
        raise HypothesisRefusal(
            f"error bound undefined: ‖T†S‖ = {pair.norm_tds:.6g} ≥ 1",
            condition="norm_TdS",
        )
    _require_inclusions(pair, "error bound")
    return pair.norm_s * _norm_pinv(pair.pr_t) ** 2 / (1.0 - pair.norm_tds)


def error_bound_lambda2_zero(t, s, tol: Tolerances | None = None) -> float:
    """A-priori bound |T'|^2 |S| / (1 - |S T'|) for surjective T.

    Refuses unless T is surjective, |S T'| < 1 and N(T) lies in N(S). Also
    verifies |(I + S T')^-1| <= 1 / (1 - |S T'|) on the way.
    """
    return _error_bound_lambda2_zero(_Pair(t, s, tol))


def _error_bound_lambda2_zero(pair: _Pair) -> float:
    """:func:`error_bound_lambda2_zero` on ``pair``."""
    prt, tol = pair.pr_t, pair.tol
    rows = pair.ms.shape[0]
    if prt.rank < rows:
        raise HypothesisRefusal(
            f"error bound refused: T is not surjective (rank {prt.rank} < {rows})",
            condition="surjective",
        )
    norm_std = pair.norm_std
    if norm_std >= 1.0:
        raise HypothesisRefusal(
            f"error bound undefined: ‖ST†‖ = {norm_std:.6g} ≥ 1",
            condition="norm_STd",
        )
    _require_inclusions(pair, "error bound", ("null_inclusion",))
    eye_cod = np.eye(rows, dtype=np.complex128)
    inv_norm = spectral_norm(_solve_shifted(eye_cod + pair.std, eye_cod, norm_std, tol))
    cap = 1.0 / (1.0 - norm_std)
    if inv_norm > cap + tol.eq(cap):
        raise InvariantViolation(
            f"‖(I+ST†)⁻¹‖ = {inv_norm:.6g} exceeds 1/(1-‖ST†‖)"
            f" = {cap:.6g}"
        )
    return _norm_pinv(prt) ** 2 * pair.norm_s / (1.0 - norm_std)


def gamma_continuity_bound(t, s, tol: Tolerances | None = None) -> tuple[float, float]:
    """(|gamma(T+S) - gamma(T)|, beta |S|) under the Stewart hypotheses.

    beta = |T'| / (|(T+S)'| (1 - |T'S|)); the achieved change is asserted
    not to exceed the bound.
    """
    return _gamma_continuity(_Pair(t, s, tol))


def _gamma_continuity(pair: _Pair) -> tuple[float, float]:
    """:func:`gamma_continuity_bound` on ``pair``; T+S is factored once the
    hypotheses hold."""
    if not pair.stewart:
        raise HypothesisRefusal(
            "gamma continuity bound refused: Stewart hypotheses fail"
            f" (‖T†S‖ = {pair.norm_tds:.6g},"
            f" range residual {pair.range_inclusion[2]:.3e},"
            f" null residual {pair.null_inclusion[2]:.3e})",
            condition="stewart",
        )
    pr, pr_sum = pair.pr_t, pair.pr_sum
    achieved = abs(pr_sum.gamma - pr.gamma)
    if pair.norm_s == 0.0:
        return achieved, 0.0
    beta = _norm_pinv(pr) / (_norm_pinv(pr_sum) * (1.0 - pair.norm_tds))
    bound = beta * pair.norm_s
    if achieved > bound + pair.tol.eq(max(1.0, pr.gamma)):
        raise InvariantViolation(
            f"gamma moved by {achieved:.6g}, above the continuity bound {bound:.6g}"
        )
    return achieved, bound


_DH_CASES = ("injective", "surjective", "general")


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
        raise ValueError(f"case must be one of {_DH_CASES}, got {case!r}")
    return _ding_huang(_Pair(t, s, tol), case)


def _ding_huang(pair: _Pair, case: str) -> DingHuangBounds:
    """:func:`norm_bounds_ding_huang` on ``pair``; T+S is factored once the
    case applies."""
    prt, tol = pair.pr_t, pair.tol
    norm_td = _norm_pinv(prt)
    rows, cols = pair.mt.shape

    def null_inclusion(label):
        if not pair.holds("null_inclusion"):
            _, resid_basis, resid_alg = pair.null_inclusion
            raise HypothesisRefusal(
                f"{label} case refused: N(T) ⊄ N(S)"
                f" (residual {max(resid_basis, resid_alg):.3e})",
                condition="null_inclusion",
            )

    if case == "injective":
        if prt.rank < cols:
            raise HypothesisRefusal(
                f"injective case refused: rank {prt.rank} < {cols} columns",
                condition="injective",
            )
        if not pair.holds("range_inclusion"):
            _, resid_proj, resid_alg = pair.range_inclusion
            raise HypothesisRefusal(
                "injective case refused: R(S) ⊄ R(T)"
                f" (residual {max(resid_proj, resid_alg):.3e})",
                condition="range_inclusion",
            )
        small = pair.norm_tds
        if not small < 1.0 - tol.margin_strict:
            raise HypothesisRefusal(
                f"injective case refused: ‖T†S‖ = {small:.6g} ≥ 1",
                condition="norm_TdS",
            )
    elif case == "surjective":
        if prt.rank < rows:
            raise HypothesisRefusal(
                f"surjective case refused: rank {prt.rank} < {rows} rows",
                condition="surjective",
            )
        null_inclusion("surjective")
        small = pair.norm_std
        if not small < 1.0 - tol.margin_strict:
            raise HypothesisRefusal(
                f"surjective case refused: ‖ST†‖ = {small:.6g} ≥ 1",
                condition="norm_STd",
            )
    else:
        null_inclusion("general")
        small = pair.norm_s * norm_td
        if not small < 1.0 - tol.margin_strict:
            raise HypothesisRefusal(
                f"general case refused: ‖S‖‖T†‖ = {small:.6g} ≥ 1",
                condition="norm_product",
            )
    norm_bound = norm_td / (1.0 - small)
    diff_bound = None if case == "general" else small * norm_td / (1.0 - small)

    pr_sum = pair.pr_sum
    if case == "injective" and pr_sum.rank < cols:
        raise InvariantViolation(
            f"T+S lost injectivity (rank {pr_sum.rank} < {cols}) under the injective case"
        )
    if case == "surjective" and pr_sum.rank < rows:
        raise InvariantViolation(
            f"T+S lost surjectivity (rank {pr_sum.rank} < {rows}) under the surjective case"
        )
    measured_norm = _norm_pinv(pr_sum)
    measured_diff = pair.norm_pinv_diff
    if measured_norm > norm_bound + tol.eq(norm_bound):
        raise InvariantViolation(
            f"‖(T+S)†‖ = {measured_norm:.6g} exceeds the {case} bound"
            f" {norm_bound:.6g}"
        )
    if diff_bound is not None and measured_diff > diff_bound + tol.eq(diff_bound):
        raise InvariantViolation(
            f"‖(T+S)† - T†‖ = {measured_diff:.6g} exceeds the {case}"
            f" difference bound {diff_bound:.6g}"
        )
    return DingHuangBounds(
        case=case,
        pinv_norm_bound=norm_bound,
        pinv_diff_bound=diff_bound,
        measured_pinv_norm=measured_norm,
        measured_pinv_diff=measured_diff,
    )
