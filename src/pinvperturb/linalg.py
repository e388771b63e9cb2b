"""Dense real and complex matrix arithmetic and rank-revealing decompositions.

Everything downstream (pseudoinverse engine, hypothesis checkers, updates)
is built on the handful of primitives in this module. All functions are
pure: inputs are never mutated and results are freshly allocated.

Matrices are plain ``numpy.ndarray`` values; :func:`as_matrix` is the single
entry point that enforces the representation (2-d, positive dimensions,
finite entries, float64 or complex128). The input's dtype decides the
working field, through :func:`_field`: a complex array is worked on in
complex128 and any other in float64, so a real operator is factored and
normed in real arithmetic. The rule reads the dtype, never the values: a
complex array with zero imaginary parts stays complex. Two matrices that
meet in one computation share a field (:func:`_same_field`); any other
matrix built here or downstream takes the dtype of one it was given.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DecompositionError,
    InvariantViolation,
    ShapeMismatchError,
    SingularMatrixError,
)

_EPS = float(np.finfo(np.float64).eps)
# sums of squares inside this range neither overflowed nor lost a
# significant share of the matrix to underflow
_SQ_LO, _SQ_HI = 2.0**-960, 2.0**960


def _field(m: np.ndarray) -> type:
    """The working dtype of an array, read from its dtype alone: complex128
    for a complex array, float64 for a real, integer or boolean one."""
    return np.complex128 if m.dtype.kind == "c" else np.float64


def _array(a) -> np.ndarray:
    """``a`` as an array of its working dtype, copied only when converted."""
    m = np.asarray(a)
    return m.astype(_field(m), copy=False)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a validated 2-d matrix, always a fresh copy.

    A complex array becomes complex128 and any other (real, integer,
    boolean) float64; the dtype decides, not the values. Raises
    :class:`ShapeMismatchError` for non-2-d or empty shapes and
    ``ValueError`` for non-finite entries.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    rows, cols = m.shape
    if rows < 1 or cols < 1:
        raise ShapeMismatchError(f"matrix dimensions must be positive, got {m.shape}")
    m = m.astype(_field(m))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _same_field(ma: np.ndarray, mb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrices that meet in one computation, in one field: a real
    one beside a complex one is promoted to complex."""
    if ma.dtype == mb.dtype:
        return ma, mb
    return ma.astype(np.complex128, copy=False), mb.astype(np.complex128, copy=False)


def _pair(t, s):
    """Validate an operator and its perturbation: equal-shape matrices in one field."""
    mt, ms = as_matrix(t), as_matrix(s)
    if mt.shape != ms.shape:
        raise ShapeMismatchError(f"T and S must have equal shapes, got {mt.shape} vs {ms.shape}")
    return _same_field(mt, ms)


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy: rank cutoff, equality slack, strict-inequality margin.

    rank_rel
        A singular value counts as nonzero iff it exceeds
        ``rank_rel * max(rows, cols) * sigma_max``.
    eq_abs, eq_rel
        Matrices compare equal iff the spectral norm of their difference is
        at most ``eq_abs + eq_rel * max(norms)``.
    margin_strict
        Strict inequalities like ``norm < 1`` certify only below
        ``1 - margin_strict``, so borderline cases never certify a
        numerically divergent inversion.
    """

    rank_rel: float = _EPS
    eq_abs: float = 1e-10
    eq_rel: float = 1e-10
    margin_strict: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"Tolerances.{f.name} must be finite and strictly positive")
        if self.rank_rel >= 1.0:
            raise ValueError("Tolerances.rank_rel must be < 1")
        if self.margin_strict >= 1.0:
            raise ValueError("Tolerances.margin_strict must be < 1")

    def eq(self, scale: float) -> float:
        """Absolute equality slack at the given norm scale."""
        return self.eq_abs + self.eq_rel * scale


DEFAULT_TOL = Tolerances()


def _tol(tol: Tolerances | None) -> Tolerances:
    return DEFAULT_TOL if tol is None else tol


@dataclass(frozen=True)
class SvdFactors:
    """Economy singular value decomposition ``a = u @ diag(sigma) @ v*``.

    ``u`` and ``v`` have orthonormal columns; ``sigma`` is non-increasing
    and non-negative.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def adjoint(a) -> np.ndarray:
    """Conjugate transpose. Involutive: ``adjoint(adjoint(a)) == a`` exactly."""
    return as_matrix(a).conj().T


def _svd(m: np.ndarray, **kwargs):
    """``np.linalg.svd``, retried on the adjoint, then raised as :class:`DecompositionError`.

    LAPACK's divide-and-conquer SVD can fail on a matrix whose singular
    values all but coincide (such as a small multiple of a unitary) and
    still converge on its adjoint. ``m* = u2 diag(s) vh2`` gives
    ``m = vh2* diag(s) u2*``, so the retry swaps the factors.
    """
    try:
        return np.linalg.svd(m, **kwargs)
    except np.linalg.LinAlgError:
        pass
    try:
        factors = np.linalg.svd(m.conj().T, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge for shape {m.shape}: {exc}") from exc
    if not kwargs.get("compute_uv", True):
        return factors
    u2, s, vh2 = factors
    return vh2.conj().T, s, u2.conj().T


def _factor(m: np.ndarray):
    """One SVD of a validated matrix: ``(u, sigma, v)`` with every right vector.

    ``u`` is the economy left factor (``rows x min(rows, cols)``) and ``v``
    is square (``cols x cols``), so ``v[:, rank:]`` spans the null space.
    Only a wide matrix needs ``full_matrices=True`` for that; its full U is
    no larger than the economy one.
    """
    u, s, vh = _svd(m, full_matrices=m.shape[0] < m.shape[1])
    return u, s, vh.conj().T


def svd(a) -> SvdFactors:
    """Economy SVD with validated input; deterministic for identical input.

    Non-convergence raises :class:`DecompositionError` rather than returning
    garbage factors.
    """
    m = as_matrix(a)
    u, s, vh = _svd(m, full_matrices=False)
    return SvdFactors(u=u, sigma=s, v=vh.conj().T)


def singular_values(a) -> np.ndarray:
    """Singular values only (non-increasing)."""
    return _svd(as_matrix(a), compute_uv=False)


def spectral_norm(a) -> float:
    """Largest singular value, as the square root of the largest eigenvalue
    of the smaller Gram matrix; 0.0 for a zero matrix or a zero dimension.

    The entries are first scaled by ``2^-e``, where ``2^(e-1)`` is at most
    the largest real or imaginary part and ``2^e`` exceeds it, so the Gram
    matrix neither overflows nor underflows as a whole; scaling by a power
    of two is exact, and so is undoing it, short of the subnormal range. A
    norm above the largest float is ``inf``, as the SVD reports it.

    Rounding. Let ``A`` (scaled) be ``m x n`` with ``p = max(m, n)`` and
    ``k = min(m, n)``, and ``G = A*A`` or ``AA*``, whichever is ``k x k``.
    Each entry of ``G`` is a complex inner product of length ``p``, so
    ``fl(G) = G + E`` with ``|E| <= sqrt(2) gamma_{p+2} |A|*|A|`` entrywise
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.6), where
    ``gamma_j = j eps / (1 - j eps)``; hence
    ``|E|_2 <= |E|_F <= sqrt(2) gamma_{p+2} |A|_F^2 <= sqrt(2) gamma_{p+2} k |A|_2^2``.
    Entries that underflow in the scaling or in the products add at most
    ``p k 2^-1074`` to ``|E|_F`` against ``|A|_2^2 >= 1/4``. ``eigvalsh``
    is backward stable: its largest eigenvalue is exact for ``fl(G) + F``
    with ``|F| <= c eps |fl(G)|`` for a modest ``c`` (Golub & Van Loan,
    *Matrix Computations*, §8.1), and by Weyl's inequality it moves by at
    most ``|E| + |F|``. The square root halves the relative error and adds
    one rounding, so the computed norm is within
    ``(k (p + 2) / sqrt(2) + c / 2 + 1) eps`` relative of ``|A|_2``, to
    first order; :func:`_norm_room` allows for that. Because
    ``|A|_2 <= |A|_F``, the error of the eigenvalue is also at most
    ``(sqrt(2) gamma_{p+2} + c eps) |A|_F^2``, and the Gram diagonal holds
    the squared column norms to ``gamma_p`` relative, so the computed norm
    stays within the bounds of :func:`_norm_bounds`. A real matrix is the
    complex one with zero imaginary parts, and its real inner products round
    no worse than those complex ones, so the same bounds cover it.

    Only the largest singular value is read this way: factorizations,
    ranks, gamma and every small singular value take an SVD.
    """
    m = _array(a)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size == 0:
        return 0.0
    # the real and imaginary parts of a complex matrix, the entries of a real one
    parts = np.ascontiguousarray(m).view(np.float64)
    big = float(np.abs(parts).max())
    if big == 0.0:
        return 0.0
    e = math.frexp(big)[1]
    x = np.ldexp(parts, -e).view(m.dtype)
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    try:
        root = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"Gram eigenvalue solve failed to converge for shape {m.shape}: {exc}") from exc
    try:
        return math.ldexp(root, e)
    except OverflowError:
        return math.inf


def _cutoff(sigma_max: float, shape: tuple, tol: Tolerances) -> float:
    """The rank cutoff of a ``shape`` matrix of norm ``sigma_max``, which
    every rank decision reads: a singular value counts iff it exceeds it."""
    return tol.rank_rel * max(shape) * sigma_max


def numerical_rank(sigma: np.ndarray, shape: tuple, tol: Tolerances | None = None) -> int:
    """Rank of a matrix with the given singular values under the rank cutoff."""
    tol = _tol(tol)
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sigma > _cutoff(float(sigma[0]), shape, tol)))


def _room(shape: tuple) -> float:
    """Relative rounding allowance of a certified bound on a ``shape`` matrix.

    It covers the rounding of the sums of squares behind the Frobenius and
    column norms, at most ``(rows + cols + 2) eps / 2`` relative, and the
    error of a singular value read from a factorization, which LAPACK
    bounds by a modest multiple of ``eps |A|`` (in practice far below
    ``(rows + cols) eps``). ``8 (rows + cols + 1) eps`` covers both with a
    wide margin and stays at the level of eps. A norm measured by
    :func:`spectral_norm` is widened by :func:`_norm_room` instead.
    """
    return 8.0 * (sum(shape) + 1) * _EPS


def _norm_room(shape: tuple) -> float:
    """Relative allowance that widens a :func:`spectral_norm` of a ``shape``
    matrix into a bound on the exact norm.

    It adds ``min(shape) (max(shape) + 2) eps``, which covers the rounding
    of the Gram matrix proved in :func:`spectral_norm`, to :func:`_room`,
    which covers the eigenvalue solve and the square root as it covers an
    SVD.
    """
    return _room(shape) + min(shape) * (max(shape) + 2) * _EPS


def _norm_bounds(m: np.ndarray) -> tuple[float, float]:
    """Certified ``(lo, hi)`` with ``lo <= spectral_norm(m) <= hi``.

    ``hi`` is the Frobenius norm and ``lo`` the largest column norm, since
    ``max_j |m e_j| <= |m|_2 <= |m|_F`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 6; Golub & Van Loan, *Matrix Computations*,
    §2.3). Each is widened by :func:`_room`, so the bounds hold for the
    computed spectral norm as well as the exact one; ``hi`` also bounds the
    exact Frobenius norm. When the sums of squares leave the range where
    they neither overflow nor underflow, the bounds are ``(0, inf)`` and
    decide nothing; a zero matrix gets ``(0, 0)``.
    """
    # einsum forms no squared copy of m and warns of no overflow
    col = np.einsum("ij,ij->j", m.real, m.real)
    if m.dtype.kind == "c":
        col += np.einsum("ij,ij->j", m.imag, m.imag)
    total = float(np.einsum("j->", col))
    if not _SQ_LO <= total <= _SQ_HI:
        return (0.0, 0.0) if total == 0.0 and not m.any() else (0.0, math.inf)
    room = _room(m.shape)
    return math.sqrt(float(col.max())) * (1.0 - room), math.sqrt(total) * (1.0 + room)


def _norm_le(a, thr: float) -> bool:
    """``spectral_norm(a) <= thr``, decided from a certified bound when one can.

    The Frobenius bound of :func:`_norm_bounds` certifies True when it
    clears ``thr``, and the column bound certifies False when it exceeds
    ``thr``; only when neither decides is the spectral norm measured, so
    the verdict is always the one the exact test gives.
    """
    lo, hi = _norm_bounds(a)
    if hi <= thr:
        return True
    return lo <= thr and spectral_norm(a) <= thr


def _within(x: float, bound: float, scale: float, tol: Tolerances) -> bool:
    """The post-condition ``x <= bound + eq(scale)`` that every closeness
    and certified-bound check applies."""
    return x <= bound + tol.eq(scale)


def _near(a, b, tol: Tolerances, bound: float = 0.0, norm_b: float | None = None):
    """Whether ``|a - b| <= bound + eq(max(|a|, |b|))``, as ``(verdict,
    |a - b|, scale)``; the norm and the scale are None when not measured.

    ``norm_b`` stands in for ``|b|`` when the caller knows the scale it
    wants; it is then the lower bound on the scale, and otherwise the
    larger column norm of ``a`` and ``b`` is. A difference whose Frobenius
    bound clears the slack at that lower bound is close without a measured
    norm; otherwise ``|a - b|`` and the scale are measured and decide, as
    the exact test does.
    """
    ma, mb = _array(a), _array(b)
    diff = ma - mb
    scale_lo = max(_norm_bounds(ma)[0], _norm_bounds(mb)[0]) if norm_b is None else norm_b
    if _within(_norm_bounds(diff)[1], bound, scale_lo, tol):
        return True, None, None
    x = spectral_norm(diff)
    scale = max(spectral_norm(ma), spectral_norm(mb) if norm_b is None else norm_b)
    return _within(x, bound, scale, tol), x, scale


def _confirm(route: str, what: str, x: float, bound: float, scale: float,
             tol: Tolerances) -> None:
    """Raise :class:`InvariantViolation` unless :func:`_within` holds:
    ``what``, measured as ``x``, exceeds the ``bound`` ``route`` certifies."""
    if not _within(x, bound, scale, tol):
        raise InvariantViolation(f"{route}: {what} = {x:.6g} exceeds its certified bound"
                                 f" {bound:.6g} by more than {tol.eq(scale):.3g}")


def _confirm_near(route: str, what: str, a, b, tol: Tolerances, bound: float = 0.0,
                  norm_b: float | None = None) -> float | None:
    """:func:`_confirm` of the :func:`_near` test of ``|a - b|``, which
    ``what`` names; returns ``|a - b|`` when it was measured, else None."""
    ok, x, scale = _near(a, b, tol, bound, norm_b)
    if not ok:
        _confirm(route, what, x, bound, scale, tol)
    return x


def mat_close(a, b, tol: Tolerances | None = None) -> bool:
    """Spectral-norm equality test: ``|a - b| <= eq_abs + eq_rel * max(|a|, |b|)``.

    Decided by :func:`_near`: the scale ``max(|a|, |b|)`` is bounded below
    by the larger column norm of ``a`` and ``b``, so a difference whose
    Frobenius norm clears ``eq`` of that bound is close without a measured
    norm. Otherwise the three spectral norms are measured, as the exact test
    does.
    """
    if np.shape(a) != np.shape(b):
        return False
    return _near(a, b, _tol(tol))[0]


def solve_square(a, b, tol: Tolerances | None = None) -> np.ndarray:
    """Solve ``a @ x = b`` for square, numerically nonsingular ``a``.

    Raises :class:`SingularMatrixError` naming the smallest singular value
    when ``a`` is singular to the rank cutoff.
    """
    return _solve_bounded(a, b, _tol(tol), 0.0, math.inf)


def _solve_bounded(a, b, tol: Tolerances, sigma_lo: float, sigma_hi: float,
                   right: bool = False) -> np.ndarray:
    """:func:`solve_square` of ``(a, b)``, or ``solve_from_right(b, a)`` when
    ``right``, given bounds ``sigma_lo <= sigma_min(a)`` and
    ``sigma_max(a) <= sigma_hi`` on the exact singular values of ``a``.

    When the bounds prove ``a`` nonsingular to the rank cutoff,
    ``sigma_lo > _cutoff(sigma_hi)`` after taking the rounding allowance of
    the computed singular values off both sides, the singularity SVD is
    skipped; the solve itself is the same. Without bounds (``0, inf``) this
    is :func:`solve_square` unchanged.
    """
    if right:
        return _solve_bounded(np.transpose(a), np.transpose(b), tol, sigma_lo, sigma_hi).T
    ma, mb = as_matrix(a), as_matrix(b)
    n = ma.shape[0]
    if ma.shape[1] != n:
        raise ShapeMismatchError(f"solve_square needs a square matrix, got {ma.shape}")
    if mb.shape[0] != n:
        raise ShapeMismatchError(
            f"right-hand side has {mb.shape[0]} rows, expected {n}"
        )
    room = _room(ma.shape)
    if not sigma_lo - room * sigma_hi > _cutoff(sigma_hi, ma.shape, tol) * (1.0 + room):
        s = singular_values(ma)
        if numerical_rank(s, ma.shape, tol) < n:
            smin = float(s[-1])
            raise SingularMatrixError(
                f"matrix is singular to tolerance: smallest singular value {smin:.6e}"
                f" (cutoff {_cutoff(float(s[0]), ma.shape, tol):.6e})",
                smallest_sigma=smin,
            )
    return np.linalg.solve(ma, mb)


def _solve_shifted(x, b, norm_x: float, tol: Tolerances, right: bool = False) -> np.ndarray:
    """:func:`_solve_bounded` of ``I + X`` where ``norm_x`` is the measured ``|X|``.

    By Weyl's inequality the singular values of ``I + X`` lie in
    ``[1 - |X|, 1 + |X|]``; ``norm_x`` is widened by :func:`_norm_room`
    before it bounds the exact ``|X|``. Every caller's theorem makes I + X
    invertible (``|X| < 1``, Sylvester's ``det(I + ST') = det(I + T'S)``
    under Stewart, or the relative theorem), so a singular one raises
    :class:`InvariantViolation`.
    """
    x_hi = norm_x * (1.0 + _norm_room(x.shape))
    a = np.eye(x.shape[0], dtype=x.dtype) + x
    try:
        return _solve_bounded(a, b, tol, 1.0 - x_hi, 1.0 + x_hi, right)
    except SingularMatrixError as exc:
        raise InvariantViolation(f"I + X is numerically singular although its theorem"
                                 f" makes it invertible (‖X‖ = {norm_x:.6g}): {exc}") from exc


def solve_from_right(a, b, tol: Tolerances | None = None) -> np.ndarray:
    """Solve ``x @ b = a`` for square nonsingular ``b``, i.e. ``a @ inv(b)``."""
    return _solve_bounded(b, a, _tol(tol), 0.0, math.inf, right=True)


def orthonormal_range_basis(a, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical column space, as matrix columns.

    Returns a ``(rows, rank)`` array; zero columns for the zero matrix.
    """
    tol = _tol(tol)
    m = as_matrix(a)
    u, s, _ = _svd(m, full_matrices=False)
    return u[:, :numerical_rank(s, m.shape, tol)].copy()


def null_space_basis(a, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis of the numerical null space, as matrix columns."""
    tol = _tol(tol)
    m = as_matrix(a)
    _, s, v = _factor(m)
    return v[:, numerical_rank(s, m.shape, tol):].copy()


def _check_orthonormal(basis: np.ndarray, tol: Tolerances, label: str) -> None:
    k = basis.shape[1]
    if k == 0:
        return
    gram = basis.conj().T @ basis
    if not _norm_le(gram - np.eye(k), tol.eq(1.0)):
        raise ValueError(f"{label} does not have orthonormal columns")


def principal_angle_gap(basis_a, basis_b, tol: Tolerances | None = None) -> float:
    """Spectral norm of the difference of the two orthogonal projections.

    Zero iff the spanned subspaces coincide; 1 for orthogonal lines. Inputs
    must have orthonormal columns (zero-column bases are allowed and span
    the trivial subspace).
    """
    tol = _tol(tol)
    ba, bb = _array(basis_a), _array(basis_b)
    if ba.ndim != 2 or bb.ndim != 2:
        raise ShapeMismatchError("bases must be 2-d arrays of column vectors")
    if ba.shape[0] != bb.shape[0]:
        raise ShapeMismatchError(
            f"bases live in different ambient spaces: {ba.shape[0]} vs {bb.shape[0]}"
        )
    _check_orthonormal(ba, tol, "first basis")
    _check_orthonormal(bb, tol, "second basis")
    n = ba.shape[0]
    pa = ba @ ba.conj().T if ba.shape[1] else np.zeros((n, n), dtype=ba.dtype)
    pb = bb @ bb.conj().T if bb.shape[1] else np.zeros((n, n), dtype=bb.dtype)
    return spectral_norm(pa - pb)
