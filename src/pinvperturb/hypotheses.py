"""Hypothesis checkers for the perturbation theorems.

Given a pair (T, S), these decide with quantified evidence which closed-form
update routes are admissible:

* the Stewart-type triple  |T'S| < 1,  TT'S = S,  ST'T = S
  (writing T' for the pseudoinverse),
* the norm-vs-gamma pair  |S| < gamma(T)  with  N(T) inside N(S),
* the relative bound  |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x|  with
  lambda1 < 1.

Every check reads (T, S) through one :class:`_Pair`, which validates the
pair and measures each of its quantities once, when first read. The private
helpers here and in ``perturb`` take that pair and their own route
parameters only, so a caller running several routes builds the pair once.

Each inclusion is decided by two independent routes (projection residual
and algebraic residual) that must agree; disagreement raises
:class:`InvariantViolation`. A route that needs only the verdict reads
:meth:`_Pair.holds`, which certifies an inclusion from the Frobenius norms
of both residuals and measures their spectral norms only when that bound
cannot decide; the pair keeps the verdict and both bounds.

Every hypothesis that several routes share (surjectivity, injectivity,
the strict norm conditions on |T'S|, |ST'| and |S||T'|, and the two
inclusions) is one entry of ``_CONDITIONS``: a test on the pair and the
statement of its failure. A route declares its tuple of names and refuses
through :meth:`_Pair.require` at the first that fails, with that name as
the refusal's ``condition``. Every strict norm test goes through
:meth:`_Pair.strict`, which applies ``margin_strict``.

Every post-condition a route checks on its result goes through the pair
too: :meth:`_Pair.within` tests ``x <= bound + eq(scale)``, and
:meth:`_Pair.confirm`, :meth:`_Pair.confirm_near` (two matrices at the scale
of |T'|) and :meth:`_Pair.keeps_rank` raise :class:`InvariantViolation`;
the first three apply and word the one closeness test of ``linalg``.

The surjective update decides the relative bound through
:func:`_relative_bound`: when N(T) lies in N(S) an exact certificate from
|ST'| proves it for every x, and the sampler of
:func:`check_relative_bound` runs only when the certificate cannot decide;
it supplies every failing verdict.

Each norm of the pair is one ``spectral_norm``, a Hermitian eigenvalue
solve on a Gram matrix; |S| and |ST'| are read only from ``norm_s`` and
``norm_std``. The singular vectors of S, ST' and T+S are directions of the
sampler alone, so their SVDs are taken only when it runs.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypothesisRefusal, InvariantViolation, SingularMatrixError
from .linalg import (SvdFactors, Tolerances, _confirm, _confirm_near, _norm_bounds,
                     _norm_room, _pair, _room, _solve_shifted, _tol, _within, spectral_norm, svd)
from .pinv import PinvResult, _norm_pinv, pseudoinverse


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


class _Pair:
    """A validated pair (T, S); each quantity is measured when a route first
    reads it and kept for the rest of the call.

    ``pr_t`` may be passed in as the caller's factorization of T, shared by
    perturbations of one operator. ``norm_s`` and ``norm_std`` are the only
    readings of |S| and |ST'|. ``f_s``, ``f_std`` and ``v_sum``, the
    singular vectors of S, ST' and T+S, are for the sampler of the relative
    bound only, so their SVDs are taken only when it runs.

    Each inclusion has an exact reading, ``range_inclusion`` and
    ``null_inclusion``: the spectral norms of both routes' residuals, their
    cross-check and the verdict, which the report and every refusal text
    use. A route that needs only the verdict reads :meth:`holds` instead.
    """

    def __init__(self, t, s, tol: Tolerances | None = None, pr_t: PinvResult | None = None):
        self.tol = _tol(tol)
        self.mt, self.ms = _pair(t, s)
        self._held = {}
        if pr_t is not None:
            self.pr_t = pr_t

    @cached_property
    def pr_t(self) -> PinvResult:
        return pseudoinverse(self.mt, self.tol)

    @cached_property
    def pr_sum(self) -> PinvResult:
        """The factorization of T+S, the oracle of every update route."""
        return pseudoinverse(self.mt + self.ms, self.tol)

    @cached_property
    def norm_s(self) -> float:
        return spectral_norm(self.ms)

    @cached_property
    def f_s(self) -> SvdFactors:
        return svd(self.ms)

    @cached_property
    def tds(self) -> np.ndarray:
        return self.pr_t.pinv @ self.ms

    @cached_property
    def std(self) -> np.ndarray:
        return self.ms @ self.pr_t.pinv

    @cached_property
    def norm_tds(self) -> float:
        return spectral_norm(self.tds)

    @cached_property
    def norm_std(self) -> float:
        return spectral_norm(self.std)

    @cached_property
    def f_std(self) -> SvdFactors:
        return svd(self.std)

    @cached_property
    def v_sum(self) -> np.ndarray:
        """Right singular vectors of T+S: from ``pr_sum`` when a route has
        factored T+S as its oracle, else from one economy SVD."""
        return self.pr_sum.v if "pr_sum" in self.__dict__ else svd(self.mt + self.ms).v

    @cached_property
    def closed_form(self) -> np.ndarray:
        """T'(I + ST')^-1, which is (T+S)' where the theorems hold (Stewart
        1977); a singular I + ST' is an :class:`InvariantViolation`."""
        try:
            return _solve_shifted(np.eye(self.mt.shape[0], dtype=np.complex128) + self.std,
                                  self.pr_t.pinv, self.norm_std, self.tol, right=True)
        except SingularMatrixError as exc:
            raise InvariantViolation(f"(I + ST†) is numerically singular: {exc}") from exc

    @cached_property
    def norm_pinv_diff(self) -> float:
        """|(T+S)' - T'|, the change every error bound is measured against."""
        return spectral_norm(self.pr_sum.pinv - self.pr_t.pinv)

    def _range_residuals(self) -> tuple[np.ndarray, np.ndarray]:
        """The residual matrices of R(S) in R(T): S - TT'S by projection, TT'S - S."""
        return self.ms - self.pr_t.proj_range @ self.ms, self.mt @ self.tds - self.ms

    def _null_residuals(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The residual matrices of N(T) in N(S): SZ for a null basis Z of T
        (None when N(T) is trivial), and ST'T - S."""
        z = self.pr_t.null_basis
        return (self.ms @ z if z.shape[1] else None), self.std @ self.mt - self.ms

    @cached_property
    def range_inclusion(self) -> tuple[bool, float, float]:
        """R(S) in R(T): (verdict, projection residual, residual of TT'S = S)."""
        return self._exact("range_inclusion", "range", "projection")

    @cached_property
    def null_inclusion(self) -> tuple[bool, float, float]:
        """N(T) in N(S): (verdict, null-basis residual, residual of ST'T = S)."""
        return self._exact("null_inclusion", "null", "basis")

    def _residuals(self, inclusion: str) -> tuple:
        """Both routes' residual matrices of ``inclusion``, as kept by
        :meth:`_bounded` when its bounds could not certify, else built."""
        held = self._held.get(inclusion)
        if held is not None and held[2] is not None:
            return held[2]
        return {"range_inclusion": self._range_residuals,
                "null_inclusion": self._null_residuals}[inclusion]()

    def _exact(self, inclusion, space, route) -> tuple[bool, float, float]:
        """The exact reading of ``inclusion``: both routes' spectral
        residuals against ``eq(|S|)``, which must agree."""
        resid, resid_alg = self._residuals(inclusion)
        resid = spectral_norm(resid) if resid is not None else 0.0
        resid_alg = spectral_norm(resid_alg)
        thr = self.tol.eq(self.norm_s)
        verdict = resid <= thr
        if verdict != (resid_alg <= thr):
            raise InvariantViolation(
                f"{space}-inclusion routes disagree:"
                f" {route} residual {resid:.3e}, algebraic residual {resid_alg:.3e},"
                f" threshold {thr:.3e}"
            )
        return verdict, resid, resid_alg

    def holds(self, inclusion: str) -> bool:
        """The verdict of ``inclusion`` (``"range_inclusion"`` or
        ``"null_inclusion"``), certified from a bound when one decides.

        The exact test compares both routes' spectral residuals with
        ``eq(|S|)``. Their Frobenius bounds (:meth:`_bounded`) can only
        certify that both pass, which is also when the routes agree;
        otherwise the exact reading decides, with its cross-check.
        """
        if inclusion not in self.__dict__ and self._bounded(inclusion)[0]:
            return True
        return getattr(self, inclusion)[0]

    def _bounded(self, inclusion: str) -> tuple[bool, tuple[float, float], tuple | None]:
        """``(certified, bounds, residuals)`` of ``inclusion``, built once per
        pair: Frobenius bounds on both routes' residuals, whether they clear
        ``eq`` of the column lower bound on |S|, and the residual matrices
        when they do not, kept for the exact reading."""
        if inclusion not in self._held:
            residuals = self._residuals(inclusion)
            his = tuple(0.0 if r is None else _norm_bounds(r)[1] for r in residuals)
            lo = _norm_bounds(self.ms)[0]
            certified = all(_within(hi, 0.0, lo, self.tol) for hi in his)
            self._held[inclusion] = certified, his, None if certified else residuals
        return self._held[inclusion]

    @cached_property
    def norm_product(self) -> float:
        """|S| |T'|, the norm condition of the general Ding-Huang case."""
        return self.norm_s * _norm_pinv(self.pr_t)

    def strict(self, x: float, scale: float = 1.0) -> bool:
        """The strict test ``x < scale`` of every certifying condition, with
        the margin: ``x < scale (1 - margin_strict)``."""
        return x < scale * (1.0 - self.tol.margin_strict)

    def require(self, route: str, *conditions: str) -> None:
        """Refuse ``route`` at the first of ``conditions`` (names in
        ``_CONDITIONS``) that the pair fails. They are tested in order, so
        a route measures only what its conditions up to the failing one read."""
        for name in conditions:
            test, statement = _CONDITIONS[name]
            if not test(self):
                raise HypothesisRefusal(f"{route} refused: {statement(self)}", condition=name)

    def within(self, x: float, bound: float, scale: float | None = None) -> bool:
        """The post-condition ``x <= bound`` of a certified result, with the
        slack ``eq(scale)``; ``scale`` defaults to ``bound``."""
        return _within(x, bound, bound if scale is None else scale, self.tol)

    def confirm(self, route: str, what: str, x: float, bound: float,
                scale: float | None = None) -> None:
        """Raise :class:`InvariantViolation` unless :meth:`within` holds:
        ``what``, measured as ``x``, exceeds the ``bound`` ``route`` certifies."""
        _confirm(route, what, x, bound, bound if scale is None else scale, self.tol)

    def confirm_near(self, route: str, what: str, a, b, bound: float = 0.0) -> float | None:
        """:meth:`confirm` of ``|a - b| <= bound + eq(max(|a|, |T'|))``, where
        ``what`` names |a - b|; returns |a - b| when it was measured, else
        None. Decided by :func:`_near` with |T'| bounding the scale below, so
        the norms are measured only when its bounds cannot decide."""
        return _confirm_near(route, what, a, b, self.tol, bound, _norm_pinv(self.pr_t))

    def keeps_rank(self, route: str, rank: int) -> None:
        """Raise :class:`InvariantViolation` unless T+S has the ``rank`` that
        the theorem behind ``route`` gives it."""
        if self.pr_sum.rank != rank:
            raise InvariantViolation(f"{route}: T+S has rank {self.pr_sum.rank},"
                                     f" not the rank {rank} its theorem gives it")

    @property
    def stewart(self) -> bool:
        """The Stewart triple: |T'S| < 1 - margin and both inclusions."""
        return all(_CONDITIONS[name][0](self) for name in _STEWART)

    @property
    def report(self) -> HypothesisReport:
        """The full :class:`HypothesisReport` of the pair."""
        _, range_resid, ttds_resid = self.range_inclusion
        null_ok, null_resid, stdt_resid = self.null_inclusion
        lambda1_min = self.norm_std if null_ok else None
        return HypothesisReport(
            norm_TdS=self.norm_tds,
            norm_STd=self.norm_std,
            norm_S=self.norm_s,
            gamma_T=self.pr_t.gamma,
            range_incl_residual=range_resid,
            null_incl_residual=null_resid,
            ttds_residual=ttds_resid,
            stdt_residual=stdt_resid,
            lambda1_min=lambda1_min,
            verdict_stewart=self.stewart,
            verdict_norm_gamma=self.strict(self.norm_s, self.pr_t.gamma) and null_ok,
            verdict_relative=lambda1_min is not None and self.strict(lambda1_min),
        )


def _norm_condition(norm: str, attr: str) -> tuple:
    """The table entry of a strict norm condition ``norm < 1`` on ``attr``."""
    return (lambda p: p.strict(getattr(p, attr)),
            lambda p: f"{norm} = {getattr(p, attr):.6g} ≥ 1 - {p.tol.margin_strict:g}"
                      " (norm condition fails)")


def _inclusion(name: str, statement: str, residual: str) -> tuple:
    """The table entry of an inclusion; its refusal names the algebraic residual."""
    return (lambda p: p.holds(name),
            lambda p: f"{statement} fails ({residual} = {getattr(p, name)[2]:.6g})")


# Every hypothesis the closed-form routes share: name -> (test on the pair,
# statement of its failure). A route declares its tuple of names and
# refuses through _Pair.require, which tests them in order.
_CONDITIONS = {
    "surjective": (lambda p: p.pr_t.rank == p.mt.shape[0],
                   lambda p: f"T is not surjective (rank {p.pr_t.rank} < {p.mt.shape[0]} rows)"),
    "injective": (lambda p: p.pr_t.rank == p.mt.shape[1],
                  lambda p: f"T is not injective (rank {p.pr_t.rank} < {p.mt.shape[1]} columns)"),
    "norm_TdS": _norm_condition("‖T†S‖", "norm_tds"),
    "norm_STd": _norm_condition("‖ST†‖", "norm_std"),
    "norm_product": _norm_condition("‖S‖‖T†‖", "norm_product"),
    "range_inclusion": _inclusion("range_inclusion", "range inclusion R(S) ⊆ R(T)",
                                  "‖TT†S - S‖"),
    "null_inclusion": _inclusion("null_inclusion", "null-space inclusion N(T) ⊆ N(S)",
                                 "‖ST†T - S‖"),
}
_STEWART = ("norm_TdS", "range_inclusion", "null_inclusion")


def check_range_inclusion(t, s, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Decide R(S) in R(T); returns (verdict, worst residual of the two routes)."""
    verdict, resid_proj, resid_alg = _Pair(t, s, tol).range_inclusion
    return verdict, max(resid_proj, resid_alg)


def check_null_inclusion(t, s, tol: Tolerances | None = None) -> tuple[bool, float]:
    """Decide N(T) in N(S); returns (verdict, worst residual of the two routes)."""
    verdict, resid_basis, resid_alg = _Pair(t, s, tol).null_inclusion
    return verdict, max(resid_basis, resid_alg)


def check_stewart_hypotheses(t, s, tol: Tolerances | None = None) -> HypothesisReport:
    """Full report over every hypothesis set for the pair (T, S).

    verdict_stewart requires |T'S| < 1 - margin together with both
    inclusions; verdict_norm_gamma requires |S| < gamma(T) * (1 - margin)
    and the null inclusion; verdict_relative requires a finite minimal
    lambda1 below 1 - margin. Both |T'S| and |S T'| are recorded because
    different statements gate on different sides.
    """
    return _Pair(t, s, tol).report


def estimate_lambda1(t, s, tol: Tolerances | None = None) -> float | None:
    """Minimal lambda1 with lambda2 = 0, or None when none exists.

    When N(T) is contained in N(S), one has S = (S T') T on all of the
    domain, so sup |Sx| / |Tx| over Tx != 0 equals |S T'| and that value is
    the tight constant. Otherwise some x has Tx = 0 but Sx != 0 and no
    finite lambda1 works.
    """
    pair = _Pair(t, s, tol)
    return pair.norm_std if pair.holds("null_inclusion") else None


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
    T, S and T+S, on a basis of N(T), and on the pulled-back extremal
    directions ``T'v`` for right-singular vectors v of ``S T'`` (these carry
    the true maximizer of |Sx| / |Tx|). Returns (worst slack >=
    -eq(max(|T|, |S|)), worst slack); the reduction is a minimum, so
    evaluation order never matters.
    """
    pair = _Pair(t, s, tol)
    _check_lambdas(lambda1, lambda2)
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    return _relative_slack(pair, lambda1, lambda2, samples, seed)


def _check_lambdas(lambda1: float, lambda2: float) -> None:
    if not lambda1 < 1.0:
        raise HypothesisRefusal(
            f"relative bound requires lambda1 < 1, got {lambda1}", condition="lambda1"
        )
    if not lambda2 > -1.0:
        raise HypothesisRefusal(
            f"relative bound requires lambda2 > -1, got {lambda2}", condition="lambda2"
        )


def _relative_slack(pair: _Pair, lambda1: float, lambda2: float,
                    samples: int = 1000, seed: int = 0) -> tuple[bool, float]:
    """:func:`check_relative_bound` on the pair's factorizations.

    The directions are the right singular vectors of T, S (``f_s``) and T+S
    (``v_sum``), a basis of N(T), and T' times the right singular vectors of
    S T' (``f_std``).
    """
    prt, fs = pair.pr_t, pair.f_s
    # (T, S) scaled by one power of two, exactly, so that the squares behind
    # the column norms cannot overflow (the slack is homogeneous in (T, S)),
    # and the directions T'v pulled back through 2^e T', the scaled T's pinv
    big = max(float(np.abs(p).max()) for m in (pair.mt, pair.ms) for p in (m.real, m.imag))
    e = math.frexp(big)[1]
    mt, ms, td = (np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k)
                  for m, k in ((pair.mt, -e), (pair.ms, -e), (prt.pinv, e)))
    directions = [prt.v, prt.null_basis, fs.v, pair.v_sum]
    pulled = _unit_columns(td @ pair.f_std.v)
    if pulled.shape[1]:
        directions.append(pulled)

    rng = np.random.default_rng(seed)
    n = mt.shape[1]
    rand = rng.standard_normal((n, samples)) + 1j * rng.standard_normal((n, samples))
    directions.append(_unit_columns(rand))

    x = np.concatenate(directions, axis=1)
    norm_t = np.linalg.norm(mt @ x, axis=0)
    norm_s = np.linalg.norm(ms @ x, axis=0)
    norm_sum = np.linalg.norm((mt + ms) @ x, axis=0)
    slack = lambda1 * norm_t + lambda2 * norm_sum - norm_s
    worst = math.ldexp(float(slack.min()), e)
    return worst >= -_relative_threshold(pair), worst


def _relative_threshold(pair: _Pair) -> float:
    """How far the slack of the relative bound may fall below 0: ``eq`` of
    max(|T|, |S|), with |T| read from the factorization of T."""
    return pair.tol.eq(max(float(pair.pr_t.sigma[0]), pair.norm_s))


def _relative_bound(pair: _Pair, lambda1: float, lambda2: float) -> tuple[bool, float | None]:
    """Whether |Sx| <= lambda1 |Tx| + lambda2 |(T+S)x| holds, as
    ``(verdict, worst sampled slack)``; the slack is None when certified.

    For every x, ``S = (ST')T + E`` with E the residual of ST'T = S, so
    ``|Sx| <= mu |Tx| + |E| |x|`` with ``mu = |ST'|``. Bounding |(T+S)x|
    below by ``|Tx| - |Sx|`` when lambda2 >= 0 and above by ``|Tx| + |Sx|``
    when lambda2 < 0, the slack of a unit x is at least
    ``c |Tx| - (1 + |lambda2|) |E|`` with ``c = lambda1 + lambda2 - (1 +
    |lambda2|) mu``, hence at least ``min(0, c) |T| - (1 + |lambda2|) |E|``.
    With mu measured as ``norm_std`` and widened by ``_norm_room``, |T| read
    from the factorization of T and widened by ``_room``, and |E| by the
    Frobenius bound the pair keeps for its null inclusion, the bound is
    certified when that clears the sampler's threshold and the same bounds
    certify N(T) in N(S). The certificate only certifies, and it never
    takes the exact inclusion reading; in every other case
    :func:`_relative_slack` decides and supplies the worst slack of a
    failing verdict.
    """
    null_ok, (_, e_hi), _ = pair._bounded("null_inclusion")
    if null_ok:
        mu_hi = pair.norm_std * (1.0 + _norm_room(pair.std.shape))
        sigma_hi = float(pair.pr_t.sigma[0]) * (1.0 + _room(pair.mt.shape))
        c = lambda1 + lambda2 - (1.0 + abs(lambda2)) * mu_hi
        if min(0.0, c) * sigma_hi - (1.0 + abs(lambda2)) * e_hi >= -_relative_threshold(pair):
            return True, None
    return _relative_slack(pair, lambda1, lambda2)
