"""Hypothesis checkers for the perturbation theorems.

Given a pair (T, S), these decide with quantified evidence which closed-form
update routes are admissible:

* the Stewart-type triple  |T'S| < 1,  TT'S = S,  ST'T = S
  (writing T' for the pseudoinverse),
* the norm-vs-gamma pair  |S| < gamma(T)  with  N(T) inside N(S),
* the relative bound  |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x|  with
  lambda1 < 1.

Each inclusion is decided by two independent routes (projection residual
and algebraic residual) that must agree; disagreement raises
:class:`InvariantViolation`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisRefusal, InvariantViolation
from .linalg import SvdFactors, Tolerances, _pair, _tol, spectral_norm, svd
from .pinv import PinvResult, pseudoinverse


@dataclass(frozen=True)
class HypothesisReport:
    """Measured quantities and verdicts for all hypothesis sets at once.

    lambda1_min is the minimal lambda1 valid with lambda2 = 0 (equal to
    |S T'|), or None when no finite lambda1 exists because some null vector
    of T is not annihilated by S.
    """

    norm_TdS: float
    norm_STd: float
    norm_S: float
    gamma_T: float
    range_incl_residual: float
    null_incl_residual: float
    ttds_residual: float
    stdt_residual: float
    lambda1_min: float | None
    verdict_stewart: bool
    verdict_norm_gamma: bool
    verdict_relative: bool


def _range_verdict(pr: PinvResult, mt, ms, norm_s: float, tol: Tolerances):
    """Range inclusion R(S) in R(T) by projection and by TT'S = S."""
    resid_proj = spectral_norm(ms - pr.proj_range @ ms)
    resid_alg = spectral_norm(mt @ (pr.pinv @ ms) - ms)
    thr = tol.eq(norm_s)
    v_proj, v_alg = resid_proj <= thr, resid_alg <= thr
    if v_proj != v_alg:
        raise InvariantViolation(
            "range-inclusion routes disagree:"
            f" projection residual {resid_proj:.3e}, algebraic residual {resid_alg:.3e},"
            f" threshold {thr:.3e}"
        )
    return v_proj, resid_proj, resid_alg


def _null_verdict(pr: PinvResult, mt, ms, norm_s: float, tol: Tolerances):
    """Null inclusion N(T) in N(S) by null basis and by ST'T = S."""
    z = pr.null_basis
    resid_basis = spectral_norm(ms @ z) if z.shape[1] else 0.0
    resid_alg = spectral_norm((ms @ pr.pinv) @ mt - ms)
    thr = tol.eq(norm_s)
    v_basis, v_alg = resid_basis <= thr, resid_alg <= thr
    if v_basis != v_alg:
        raise InvariantViolation(
            "null-inclusion routes disagree:"
            f" basis residual {resid_basis:.3e}, algebraic residual {resid_alg:.3e},"
            f" threshold {thr:.3e}"
        )
    return v_basis, resid_basis, resid_alg


def check_range_inclusion(t, s, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Decide R(S) in R(T); returns (verdict, worst residual of the two routes)."""
    tol = _tol(tol)
    mt, ms = _pair(t, s)
    pr = pseudoinverse(mt, tol)
    verdict, resid_proj, resid_alg = _range_verdict(pr, mt, ms, spectral_norm(ms), tol)
    return verdict, max(resid_proj, resid_alg)


def check_null_inclusion(t, s, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Decide N(T) in N(S); returns (verdict, worst residual of the two routes)."""
    tol = _tol(tol)
    mt, ms = _pair(t, s)
    pr = pseudoinverse(mt, tol)
    verdict, resid_basis, resid_alg = _null_verdict(pr, mt, ms, spectral_norm(ms), tol)
    return verdict, max(resid_basis, resid_alg)


def check_stewart_hypotheses(t, s, tol: Tolerances | None = None) -> HypothesisReport:
    """Full report over every hypothesis set for the pair (T, S).

    verdict_stewart requires |T'S| < 1 - margin together with both
    inclusions; verdict_norm_gamma requires |S| < gamma(T) * (1 - margin)
    and the null inclusion; verdict_relative requires a finite minimal
    lambda1 below 1 - margin. Both |T'S| and |S T'| are recorded because
    different statements gate on different sides.
    """
    tol = _tol(tol)
    mt, ms = _pair(t, s)
    return _stewart_report(pseudoinverse(mt, tol), mt, ms, tol)


def _stewart_report(pr: PinvResult, mt, ms, tol: Tolerances) -> HypothesisReport:
    """:func:`check_stewart_hypotheses` on the factorization ``pr`` of T."""
    norm_tds = spectral_norm(pr.pinv @ ms)
    norm_std = spectral_norm(ms @ pr.pinv)
    norm_s = spectral_norm(ms)
    thr = tol.eq(norm_s)

    range_ok, range_resid, ttds_resid = _range_verdict(pr, mt, ms, norm_s, tol)
    null_ok, null_resid, stdt_resid = _null_verdict(pr, mt, ms, norm_s, tol)
    lambda1_min = norm_std if null_ok else None

    verdict_stewart = (
        norm_tds < 1.0 - tol.margin_strict
        and ttds_resid <= thr
        and stdt_resid <= thr
    )
    verdict_norm_gamma = (
        norm_s < pr.gamma * (1.0 - tol.margin_strict) and null_resid <= thr
    )
    verdict_relative = lambda1_min is not None and lambda1_min < 1.0 - tol.margin_strict

    return HypothesisReport(
        norm_TdS=norm_tds,
        norm_STd=norm_std,
        norm_S=norm_s,
        gamma_T=pr.gamma,
        range_incl_residual=range_resid,
        null_incl_residual=null_resid,
        ttds_residual=ttds_resid,
        stdt_residual=stdt_resid,
        lambda1_min=lambda1_min,
        verdict_stewart=verdict_stewart,
        verdict_norm_gamma=verdict_norm_gamma,
        verdict_relative=verdict_relative,
    )


def estimate_lambda1(t, s, tol: Tolerances | None = None) -> float | None:
    """Minimal lambda1 with lambda2 = 0, or None when none exists.

    When N(T) is contained in N(S), one has S = (S T') T on all of the
    domain, so sup |Sx| / |Tx| over Tx != 0 equals |S T'| and that value is
    the tight constant. Otherwise some x has Tx = 0 but Sx != 0 and no
    finite lambda1 works.
    """
    tol = _tol(tol)
    mt, ms = _pair(t, s)
    pr = pseudoinverse(mt, tol)
    null_ok, _, _ = _null_verdict(pr, mt, ms, spectral_norm(ms), tol)
    if not null_ok:
        return None
    return spectral_norm(ms @ pr.pinv)


def _unit_columns(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=0)
    keep = norms > 0.0
    return x[:, keep] / norms[keep]


def check_relative_bound(
    t,
    s,
    lambda1: float,
    lambda2: float,
    samples: int = 1000,
    tol: Tolerances | None = None,
    seed: int = 0,
) -> tuple[bool, float]:
    """Sampled verification of |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x|.

    Evaluates the slack ``lambda1 |Tx| + lambda2 |(T+S)x| - |Sx|`` on
    ``samples`` random unit vectors, on every right-singular direction of
    T, S and T+S, and on the pulled-back extremal directions ``T'v`` for
    right-singular vectors v of ``S T'`` (these carry the true maximizer of
    |Sx| / |Tx|). Returns (worst slack >= -tol, worst slack); the reduction
    is a minimum, so evaluation order never matters.
    """
    tol = _tol(tol)
    mt, ms = _pair(t, s)
    _check_lambdas(lambda1, lambda2)
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    prt = pseudoinverse(mt, tol)
    return _relative_slack(mt, ms, lambda1, lambda2, tol, prt, svd(ms), svd(ms @ prt.pinv),
                           svd(mt + ms).v, samples, seed)


def _check_lambdas(lambda1: float, lambda2: float) -> None:
    if not lambda1 < 1.0:
        raise HypothesisRefusal(
            f"relative bound requires lambda1 < 1, got {lambda1}", condition="lambda1"
        )
    if not lambda2 > -1.0:
        raise HypothesisRefusal(
            f"relative bound requires lambda2 > -1, got {lambda2}", condition="lambda2"
        )


def _relative_slack(mt, ms, lambda1: float, lambda2: float, tol: Tolerances, prt: PinvResult,
                    fs: SvdFactors, f_st: SvdFactors, v_sum: np.ndarray,
                    samples: int = 1000, seed: int = 0) -> tuple[bool, float]:
    """:func:`check_relative_bound` from factorizations the caller already has.

    ``prt`` factors T, ``fs`` factors S, ``f_st`` factors S T' and ``v_sum``
    holds the right singular vectors of T+S; ``|T|`` and ``|S|`` are read
    from their leading singular values.
    """
    msum = mt + ms
    directions = [prt.v, fs.v, v_sum]
    pulled = _unit_columns(prt.pinv @ f_st.v)
    if pulled.shape[1]:
        directions.append(pulled)

    rng = np.random.default_rng(seed)
    n = mt.shape[1]
    rand = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    directions.append(_unit_columns(rand))

    x = np.concatenate(directions, axis=1)
    norm_t = np.linalg.norm(mt @ x, axis=0)
    norm_s = np.linalg.norm(ms @ x, axis=0)
    norm_sum = np.linalg.norm(msum @ x, axis=0)
    slack = lambda1 * norm_t + lambda2 * norm_sum - norm_s
    worst = float(slack.min())
    thr = tol.eq(max(float(prt.sigma[0]), float(fs.sigma[0])))
    return worst >= -thr, worst
