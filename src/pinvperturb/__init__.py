"""Certified perturbation theory for Moore-Penrose pseudoinverses.

A dense-matrix toolkit for the closed-range perturbation calculus: compute
pseudoinverses with their reduced minimum modulus and canonical projections,
decide which perturbation hypotheses a pair (T, S) satisfies, apply the
closed-form updates for (T+S) with a-priori error bounds, invert via
Neumann series with certified geometric tails, and verify the reverse-order
law for factored operators. Every closed-form route is cross-checked
against an independent SVD oracle.

Importing the package loads none of its modules. Each public name, and each
submodule, is imported on first access (PEP 562) and read from its home
module on every access, so a CLI process loads only the modules its command
runs.
"""

from importlib import import_module as _import_module

__version__ = "0.2.0"

# home module -> the public names it defines
_PUBLIC = {
    "cli": (),
    "errors": ("DecompositionError", "HypothesisRefusal", "InvariantViolation",
               "MatrixMarketError", "OutOfRangeError", "PinvPerturbError",
               "ShapeMismatchError", "SingularMatrixError"),
    "generators": ("GenSpec", "adversarial_pair", "commute_identity_check", "haar_unitary",
                   "random_contraction", "random_operator", "random_relative_perturbation",
                   "s_alpha"),
    "hypotheses": ("HypothesisReport", "check_null_inclusion", "check_range_inclusion",
                   "check_relative_bound", "check_stewart_hypotheses", "estimate_lambda1"),
    "linalg": ("SvdFactors", "Tolerances", "adjoint", "as_matrix", "mat_close",
               "null_space_basis", "numerical_rank", "orthonormal_range_basis",
               "principal_angle_gap", "singular_values", "solve_square", "spectral_norm",
               "svd"),
    "mmio": ("read_matrix", "write_matrix"),
    "perturb": ("DingHuangBounds", "NeumannResult", "UpdateResult", "error_bound_lambda2_zero",
                "error_bound_stewart", "gamma_continuity_bound", "neumann_pinv",
                "norm_bounds_ding_huang", "update_relative_surjective", "update_stewart"),
    "pinv": ("AxiomReport", "PinvResult", "least_squares_min_norm", "mp_representation",
             "pseudoinverse", "reduced_min_modulus", "verify_mp_axioms"),
    "report": ("Report", "parse_report", "serialize_report"),
    "reverse_order": ("FactoredPinv", "check_rol_hypotheses", "reverse_order_pinv"),
    "verify": ("run_verification",),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _PUBLIC:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_PUBLIC))
