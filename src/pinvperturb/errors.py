"""Exception types shared across the package.

Refusals are typed, never silent: an operation whose hypotheses fail raises
instead of falling back to a best-effort answer.
"""


class PinvPerturbError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatchError(PinvPerturbError, ValueError):
    """Operands have incompatible shapes."""


class DecompositionError(PinvPerturbError, RuntimeError):
    """A decomposition did not converge after the configured sweeps."""


class SingularMatrixError(PinvPerturbError, ValueError):
    """Square solve requested on a matrix singular to working tolerance."""

    def __init__(self, message, smallest_sigma=None):
        super().__init__(message)
        self.smallest_sigma = smallest_sigma


class OutOfRangeError(PinvPerturbError, ValueError):
    """A result would leave the floating-point range, such as a pseudoinverse
    whose largest singular value ``1 / sigma_r`` overflows."""


class HypothesisRefusal(PinvPerturbError, ValueError):
    """A theorem hypothesis fails; the closed-form route is refused."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class InvariantViolation(PinvPerturbError, RuntimeError):
    """An identity that must hold under the hypotheses failed numerically.

    Typically signals a numerical-rank inconsistency or an input far outside
    the regime the certified formulas assume.
    """


class MatrixMarketError(PinvPerturbError, ValueError):
    """A Matrix Market file cannot be parsed or written."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:" if line is None else f"{path}:{line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line
