"""Reverse-order law for factored pseudoinverses.

For A = F G with F of full column rank and G of full row rank, the
pseudoinverse factors as A' = G' F' and has the closed form
G* (G G*)^-1 (F* F)^-1 F*. All three routes are computed and compared;
the intermediate identities A' F = G* (G G*)^-1 and G A' = (F* F)^-1 F*
behind the factorization are asserted as internal checks.

:func:`reverse_order_pinv` hands the validated factors to ``_reverse_order``,
which also returns the factorizations of F and of A, for ``verify`` to read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisRefusal,
    InvariantViolation,
    ShapeMismatchError,
    SingularMatrixError,
)
from .linalg import (
    Tolerances,
    _confirm_near,
    _same_field,
    _tol,
    adjoint,
    as_matrix,
    numerical_rank,
    singular_values,
    solve_from_right,
    solve_square,
    spectral_norm,
)
from .pinv import PinvResult, pseudoinverse


@dataclass(frozen=True)
class FactoredPinv:
    """The product A = F G and its pseudoinverse by three routes."""

    a: np.ndarray
    pinv_reverse: np.ndarray
    pinv_closed_form: np.ndarray
    pinv_oracle: np.ndarray
    max_pairwise_discrepancy: float


def _factors(f, g) -> tuple[np.ndarray, np.ndarray]:
    """Validate the factors F and G: matrices in one field whose product FG is defined."""
    mf, mg = as_matrix(f), as_matrix(g)
    if mf.shape[1] != mg.shape[0]:
        raise ShapeMismatchError(f"factors do not conform: F is {mf.shape}, G is {mg.shape}")
    return _same_field(mf, mg)


def check_rol_hypotheses(f, g, tol: Tolerances | None = None) -> bool:
    """True iff F has full column rank and G has full row rank (numerically)."""
    tol = _tol(tol)
    mf, mg = _factors(f, g)
    rank_f = numerical_rank(singular_values(mf), mf.shape, tol)
    rank_g = numerical_rank(singular_values(mg), mg.shape, tol)
    return rank_f == mf.shape[1] and rank_g == mg.shape[0]


def reverse_order_pinv(f, g, tol: Tolerances | None = None) -> FactoredPinv:
    """Pseudoinverse of A = F G by oracle, reverse order, and closed form."""
    return _reverse_order(*_factors(f, g), _tol(tol))[0]


def _reverse_order(mf: np.ndarray, mg: np.ndarray,
                   tol: Tolerances) -> tuple[FactoredPinv, PinvResult, PinvResult]:
    """:func:`reverse_order_pinv` on validated factors; also returns the
    factorizations of F and of A = FG, the oracle."""
    pr_f, pr_g = pseudoinverse(mf, tol), pseudoinverse(mg, tol)
    if pr_f.rank != mf.shape[1] or pr_g.rank != mg.shape[0]:
        raise HypothesisRefusal(
            "reverse-order law refused:"
            f" F needs full column rank (rank {pr_f.rank} of {mf.shape[1]}),"
            f" G needs full row rank (rank {pr_g.rank} of {mg.shape[0]})",
            condition="factor_ranks",
        )

    a = mf @ mg
    pr_a = pseudoinverse(a, tol)
    oracle = pr_a.pinv
    reverse = pr_g.pinv @ pr_f.pinv

    fa, ga = adjoint(mf), adjoint(mg)
    try:
        # G* (G G*)^-1 and (F* F)^-1 F*; both Gram matrices are nonsingular
        # under the rank hypotheses.
        right_factor = solve_from_right(ga, mg @ ga, tol)
        left_factor = solve_square(fa @ mf, fa, tol)
    except SingularMatrixError as exc:
        raise InvariantViolation(
            f"Gram matrix singular despite full-rank factors: {exc}"
        ) from exc
    closed = right_factor @ left_factor

    _confirm_near("reverse-order law", "‖A†F - G*(GG*)⁻¹‖", oracle @ mf, right_factor, tol)
    _confirm_near("reverse-order law", "‖GA† - (F*F)⁻¹F*‖", mg @ oracle, left_factor, tol)

    disc = max(
        spectral_norm(oracle - reverse),
        spectral_norm(oracle - closed),
        spectral_norm(reverse - closed),
    )
    return FactoredPinv(
        a=a,
        pinv_reverse=reverse,
        pinv_closed_form=closed,
        pinv_oracle=oracle,
        max_pairwise_discrepancy=disc,
    ), pr_f, pr_a
