"""Pseudoinverse basics: rank, gamma, projections, minimal-norm least squares.

Run with:  python3 demos/01_pseudoinverse_and_least_squares.py
"""

import numpy as np

from pinvperturb import (
    least_squares_min_norm,
    mp_representation,
    pseudoinverse,
    reduced_min_modulus,
    spectral_norm,
    verify_mp_axioms,
)

rng = np.random.default_rng(0)

# a rank-deficient 5x3 operator: third column is a combination of the others
t = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
t[:, 2] = 0.5 * t[:, 0] - 2.0 * t[:, 1]

pr = pseudoinverse(t)
print("shape", t.shape, "-> pinv shape", pr.pinv.shape)
print("numerical rank:", pr.rank)
print("singular values:", np.round(pr.sigma, 6))

# gamma is the smallest nonzero singular value and the reciprocal of |pinv|
gamma = reduced_min_modulus(t)
print("gamma(T) =", gamma)
print("1 / |pinv(T)| =", 1.0 / spectral_norm(pr.pinv))

# the four defining axioms certify the computed pinv
ax = verify_mp_axioms(t, pr.pinv)
print("axiom residuals:",
      [f"{r:.2e}" for r in (ax.residual_tTt, ax.residual_tdTtd,
                            ax.residual_sym1, ax.residual_sym2)],
      "passed:", ax.passed)

# the normal-equation representations agree with the SVD route
rep = mp_representation(t)
print("|(T*T)^+ T* - pinv| =", f"{spectral_norm(rep - pr.pinv):.2e}")

# least squares: the returned solution minimizes the residual and, among all
# minimizers, has the smallest norm (it is orthogonal to the null space)
y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
x = least_squares_min_norm(t, y)
print("\nleast squares for a random right-hand side:")
print("  residual |Tx - y|     =", f"{np.linalg.norm(t @ x - y):.6f}")
print("  projection onto N(T)  =", f"{np.linalg.norm(pr.pinv @ t @ x - x):.2e}")

# compare against a direct dense solve of the normal equations on the range
candidate = x + (np.eye(3) - pr.pinv @ t) @ rng.standard_normal(3)
print("  |x| vs another minimizer:", f"{np.linalg.norm(x):.6f}",
      "<=", f"{np.linalg.norm(candidate):.6f}")

# a real operator is worked on in real arithmetic: its pinv is a float64
# array, and it matches the pinv of the same operator cast to complex
# within rounding
t_real = rng.standard_normal((5, 3))
pinv_real = pseudoinverse(t_real).pinv
pinv_cast = pseudoinverse(t_real.astype(np.complex128)).pinv
print("\nreal operator: pinv dtype", pinv_real.dtype, "| complex cast:", pinv_cast.dtype)
gap = spectral_norm(pinv_real - pinv_cast)
print("  |pinv(T) - pinv(T as complex)| =", f"{gap:.2e}")
assert gap <= 1e-12 * spectral_norm(pinv_real)
