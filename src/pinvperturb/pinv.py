"""Moore-Penrose pseudoinverse engine.

Computes the pseudoinverse together with the quantities the perturbation
theory runs on: the reduced minimum modulus (smallest nonzero singular
value) and the canonical orthogonal projections onto the range and the row
space. Also provides the defining-axiom checker used as an independent
oracle throughout the test suite.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import OutOfRangeError, ShapeMismatchError
from .linalg import (
    Tolerances,
    _confirm_near,
    _array,
    _factor,
    _svd,
    _tol,
    _within,
    adjoint,
    as_matrix,
    numerical_rank,
    spectral_norm,
)


@dataclass(frozen=True)
class PinvResult:
    """Pseudoinverse plus the metadata of its rank-revealing decomposition.

    This is the single factorization of an operator: a public call in
    ``hypotheses``, ``perturb`` or ``reverse_order`` builds one per operator
    it works on and hands it to every check of that call. Quantities the
    factors already give are read, not re-measured: ``|pinv| = 1 / gamma``
    (0.0 at rank 0) and ``|T| = sigma[0]``.

    pinv
        The Moore-Penrose inverse, shape ``(cols, rows)`` of the source.
    rank
        Numerical rank under the configured cutoff.
    sigma
        All ``min(rows, cols)`` singular values of the source, non-increasing.
    gamma
        Reduced minimum modulus: the smallest nonzero singular value,
        ``sigma[rank - 1]``; 0.0 for the zero matrix.
    u
        The economy left singular vectors, ``(rows, min(rows, cols))``,
        matching ``sigma`` column by column.
    v
        The economy right singular vectors, ``(cols, min(rows, cols))``,
        matching ``sigma`` column by column.
    null_basis
        Orthonormal basis of the numerical null space, ``(cols, cols - rank)``.
    proj_range, proj_rowspace
        Orthogonal projections onto the column space and onto the orthogonal
        complement of the null space, built from the singular bases ``u``
        and ``v`` (not from pinv products, so they can cross-check those
        products). Each is formed when first read and then kept.

    The SVD behind it is the economy one, except that a wide source keeps
    all of V (``full_matrices=True``) so the null basis is available; no
    ``rows x rows`` U is ever formed for a tall source.
    """

    pinv: np.ndarray
    rank: int
    sigma: np.ndarray
    gamma: float
    u: np.ndarray
    v: np.ndarray
    null_basis: np.ndarray

    @cached_property
    def proj_range(self) -> np.ndarray:
        ur = self.u[:, :self.rank]
        return ur @ ur.conj().T

    @cached_property
    def proj_rowspace(self) -> np.ndarray:
        vr = self.v[:, :self.rank]
        return vr @ vr.conj().T


@dataclass(frozen=True)
class AxiomReport:
    """Residuals of the four defining identities of the pseudoinverse."""

    residual_tTt: float
    residual_tdTtd: float
    residual_sym1: float
    residual_sym2: float
    passed: bool


def pseudoinverse(t, tol: Tolerances | None = None) -> PinvResult:
    """Pseudoinverse via SVD with rank cutoff.

    Inverts singular values above the cutoff and zeroes the rest, so the
    result maps the range onto the row space and kills the complement.
    Raises :class:`OutOfRangeError` before it divides when ``1 / sigma_r``,
    the norm of the result, overflows (an operator of subnormal scale).
    """
    tol = _tol(tol)
    m = as_matrix(t)
    u, s, v = _factor(m)
    r = numerical_rank(s, m.shape, tol)
    if r:
        gamma = float(s[r - 1])
        if not math.isfinite(1.0 / gamma):
            raise OutOfRangeError(
                f"pseudoinverse of a {m.shape[0]} x {m.shape[1]} operator is out of range:"
                f" 1/sigma_r overflows for sigma_r = {gamma:.6g} (rank {r})")
        pinv = (v[:, :r] / s[:r]) @ u[:, :r].conj().T
    else:
        pinv = np.zeros((m.shape[1], m.shape[0]), dtype=m.dtype)
        gamma = 0.0
    return PinvResult(
        pinv=pinv,
        rank=r,
        sigma=s,
        gamma=gamma,
        u=u,
        v=v[:, :s.size],
        null_basis=v[:, r:],
    )


def _norm_pinv(pr: PinvResult) -> float:
    """Spectral norm of ``pr.pinv``, read as ``1 / gamma``; 0.0 at rank 0."""
    return 1.0 / pr.gamma if pr.rank else 0.0


def reduced_min_modulus(t, tol: Tolerances | None = None) -> float:
    """Smallest nonzero singular value; 0.0 for the zero matrix.

    Equals the infimum of ``|Tx|`` over unit vectors orthogonal to the null
    space, and the reciprocal of ``|pinv(T)|`` for nonzero ``T``.
    """
    tol = _tol(tol)
    m = as_matrix(t)
    return _gamma(_svd(m, compute_uv=False), m.shape, tol)


def _gamma(sigma: np.ndarray, shape: tuple, tol: Tolerances) -> float:
    """Reduced minimum modulus from the singular values of a matrix of ``shape``."""
    r = numerical_rank(sigma, shape, tol)
    return float(sigma[r - 1]) if r else 0.0


def verify_mp_axioms(t, candidate, tol: Tolerances | None = None) -> AxiomReport:
    """Check whether ``candidate`` satisfies the four pseudoinverse axioms.

    Residuals: ``|T C T - T|``, ``|C T C - C|``, ``|(T C)* - T C|`` and
    ``|(C T)* - C T|``. ``passed`` is true iff each residual is below the
    equality tolerance at its natural norm scale.
    """
    tol = _tol(tol)
    m = as_matrix(t)
    c = as_matrix(candidate)
    if c.shape != (m.shape[1], m.shape[0]):
        raise ShapeMismatchError(
            f"candidate shape {c.shape} does not match transpose of {m.shape}"
        )
    return _axioms(m, c, spectral_norm(m), spectral_norm(c), tol)


def _axioms(m: np.ndarray, c: np.ndarray, nt: float, nc: float, tol: Tolerances) -> AxiomReport:
    """:func:`verify_mp_axioms` on validated matrices, given ``nt = |T|``
    (``sigma[0]`` of a caller's factorization) and ``nc = |C|``."""
    tc = m @ c
    ct = c @ m
    r1 = spectral_norm(tc @ m - m)
    r2 = spectral_norm(ct @ c - c)
    r3 = spectral_norm(tc.conj().T - tc)
    r4 = spectral_norm(ct.conj().T - ct)
    passed = (
        _within(r1, 0.0, nt, tol)
        and _within(r2, 0.0, nc, tol)
        and _within(r3, 0.0, max(1.0, nt * nc), tol)
        and _within(r4, 0.0, max(1.0, nt * nc), tol)
    )
    return AxiomReport(r1, r2, r3, r4, passed)


def least_squares_min_norm(t, y, tol: Tolerances | None = None) -> np.ndarray:
    """Minimal-norm least-squares solution ``x = pinv(T) @ y``.

    Among all minimizers of ``|Tx - y|`` the returned vector has the
    smallest norm (it is orthogonal to the null space of ``T``).
    """
    m = as_matrix(t)
    vec = _array(y)
    if vec.ndim != 1:
        raise ShapeMismatchError(f"expected a 1-d vector, got ndim={vec.ndim}")
    if vec.shape[0] != m.shape[0]:
        raise ShapeMismatchError(
            f"vector length {vec.shape[0]} does not match {m.shape[0]} rows"
        )
    return pseudoinverse(m, tol).pinv @ vec


def mp_representation(t, tol: Tolerances | None = None) -> np.ndarray:
    """Pseudoinverse through the two normal-equation routes.

    Computes ``pinv(T*T) @ T*`` and ``T* @ pinv(TT*)``, asserts both agree
    with the direct SVD pseudoinverse, and returns the first route. A
    disagreement is raised as :class:`InvariantViolation`; it signals a
    numerical-rank inconsistency between ``T`` and its Gram matrices.
    """
    tol = _tol(tol)
    m = as_matrix(t)
    ta = adjoint(m)
    direct = pseudoinverse(m, tol).pinv
    via_gram = pseudoinverse(ta @ m, tol).pinv @ ta
    via_cogram = ta @ pseudoinverse(m @ ta, tol).pinv
    for route, via in (("gram", via_gram), ("cogram", via_cogram)):
        _confirm_near("pseudoinverse representation", f"‖{route} route - direct‖",
                      via, direct, tol)
    return via_gram
