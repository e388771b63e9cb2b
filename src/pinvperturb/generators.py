"""Constructors for operators and perturbations with certified properties.

Used by tests, demos, and the randomized verification suite: operators with
prescribed rank and spectrum extremes, perturbations that provably satisfy
each theorem's hypotheses, and adversarial pairs that violate exactly one
named hypothesis. All constructions are deterministic per seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisRefusal
from .linalg import (
    _EPS,
    Tolerances,
    _confirm,
    _norm_bounds,
    _solve_bounded,
    _tol,
    adjoint,
    as_matrix,
    solve_from_right,
    solve_square,
    spectral_norm,
)
from .pinv import reduced_min_modulus


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random operator with prescribed rank and spectrum ends.

    gamma_target is the smallest nonzero singular value of the output,
    norm_target the largest; both are hit exactly (up to unitary rounding).
    """

    rows: int
    cols: int
    rank: int
    gamma_target: float
    norm_target: float
    seed: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if not 0 <= self.rank <= min(self.rows, self.cols):
            raise ValueError(
                f"rank must lie in [0, {min(self.rows, self.cols)}], got {self.rank}"
            )
        if not 0.0 < self.gamma_target <= self.norm_target:
            raise ValueError("need 0 < gamma_target <= norm_target")


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n unitary from QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_contraction(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x n matrix with spectral norm at most 1."""
    d = rng.uniform(0.0, 1.0, size=n)
    return (haar_unitary(n, rng) * d) @ haar_unitary(n, rng).conj().T


def random_operator(spec: GenSpec) -> np.ndarray:
    """Matrix with exactly the prescribed rank, norm, and smallest nonzero sigma.

    Built as U diag(sigma) V* with random unitary factors; the interior
    singular values are drawn uniformly between the two targets. Raises
    ``ValueError`` for infeasible specs (rank 1 with distinct targets).
    """
    rng = np.random.default_rng(spec.seed)
    if spec.rank == 0:
        return np.zeros((spec.rows, spec.cols), dtype=np.complex128)
    if spec.rank == 1:
        if spec.gamma_target != spec.norm_target:
            raise ValueError(
                "rank-1 spectrum has a single singular value; gamma_target"
                f" {spec.gamma_target} and norm_target {spec.norm_target} cannot differ"
            )
        sigma = np.array([spec.norm_target])
    else:
        interior = rng.uniform(spec.gamma_target, spec.norm_target, size=spec.rank - 2)
        sigma = np.concatenate(
            [[spec.norm_target], np.sort(interior)[::-1], [spec.gamma_target]]
        )
    u = haar_unitary(spec.rows, rng)[:, : spec.rank]
    v = haar_unitary(spec.cols, rng)[:, : spec.rank]
    return (u * sigma) @ v.conj().T


def s_alpha(t, alpha: float, tol: Tolerances | None = None) -> np.ndarray:
    """Perturbation alpha * T (I + T*T)^-1, admissible for 0 < alpha < 2 gamma(T).

    Its norm is at most alpha / 2, and it satisfies all three Stewart
    hypotheses against T by construction (the interval bound is exactly
    2 / |pinv(T)|). For the zero matrix every positive alpha is admissible
    and the output is zero.
    """
    tol = _tol(tol)
    m = as_matrix(t)
    _check_alpha(alpha, reduced_min_modulus(m, tol))
    return alpha * _s_alpha_direction(m, tol)


def _check_alpha(alpha: float, gamma: float) -> None:
    """Refuse a step ``alpha`` outside (0, 2 gamma), or (0, inf) when gamma is 0."""
    upper = np.inf if gamma == 0.0 else 2.0 * gamma
    if not 0.0 < alpha < upper:
        raise HypothesisRefusal(
            f"alpha = {alpha} outside the admissible interval (0, {upper})"
            " = (0, 2/‖T†‖)",
            condition="alpha",
        )


def _s_alpha_direction(m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """T (I + T*T)^-1 for a validated matrix: :func:`s_alpha` is alpha times it.

    A caller that needs S_alpha for several steps solves once and scales.
    """
    gram = np.eye(m.shape[1], dtype=np.complex128) + adjoint(m) @ m
    # sigma(I + T*T) lies in [1, 1 + |T|^2], widened by the rounding of the
    # product, at most (rows + 2) eps |T|_F^2; that proves it nonsingular
    fro_sq = _norm_bounds(m)[1] ** 2
    rounding = (m.shape[0] + 2) * _EPS * fro_sq
    return _solve_bounded(gram, m, tol, 1.0 - rounding, 1.0 + fro_sq + rounding, right=True)


def commute_identity_check(t, tol: Tolerances | None = None) -> float:
    """Residual of (I + TT*)^-1 T = T (I + T*T)^-1; asserted near zero."""
    tol = _tol(tol)
    m = as_matrix(t)
    ta = adjoint(m)
    lhs = solve_square(np.eye(m.shape[0], dtype=np.complex128) + m @ ta, m, tol)
    rhs = solve_from_right(m, np.eye(m.shape[1], dtype=np.complex128) + ta @ m, tol)
    resid = spectral_norm(lhs - rhs)
    _confirm("commute identity", "‖(I+TT*)⁻¹T - T(I+T*T)⁻¹‖", resid, 0.0, 1.0, tol)
    return resid


def random_relative_perturbation(t, lambda1: float, seed: int) -> np.ndarray:
    """S = lambda1 * W * T for a random contraction W.

    Guarantees |Sx| <= lambda1 |Tx| for every x and N(T) inside N(S) by
    construction.
    """
    if not 0.0 <= lambda1 < 1.0:
        raise HypothesisRefusal(
            f"lambda1 must lie in [0, 1), got {lambda1}", condition="lambda1"
        )
    m = as_matrix(t)
    rng = np.random.default_rng(seed)
    if lambda1 == 0.0:
        return np.zeros_like(m)
    return lambda1 * (random_contraction(m.shape[0], rng) @ m)


_ADVERSARIAL_KINDS = ("range_violation", "null_violation", "norm_violation")


def adversarial_pair(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A (T, S) pair violating exactly the named Stewart hypothesis.

    The base operator is 4 x 3 of rank 2, so it has both a nontrivial null
    space and a proper range. The other two hypotheses hold by construction
    wherever structurally possible.
    """
    if kind not in _ADVERSARIAL_KINDS:
        raise ValueError(f"kind must be one of {_ADVERSARIAL_KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    u = haar_unitary(4, rng)
    v = haar_unitary(3, rng)
    sigma = np.array([1.6, 0.8])
    t = (u[:, :2] * sigma) @ v[:, :2].conj().T
    if kind == "range_violation":
        # component in R(T)-perp hitting a row-space direction: range fails,
        # null inclusion and the norm condition survive (T' kills R(T)-perp).
        s = 0.3 * np.outer(u[:, 2], v[:, 0].conj())
    elif kind == "null_violation":
        # range direction times a null covector: S no longer kills N(T).
        s = 0.3 * np.outer(u[:, 0], v[:, 2].conj())
    else:
        # colinear blow-up: |T'S| = 1.5 while both inclusions stay exact.
        s = 1.5 * t
    return t, s
