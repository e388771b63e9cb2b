"""Checks that use numpy alone, never the package under test.

Every certified construction in the workloads has its nonzero singular
values within a factor of about 20 of each other and its zero ones at
rounding level, so any rank cutoff between 1e-13 and 1e-3 of the largest
singular value gives the same pseudoinverse; the oracle uses 1e-10.
"""

import numpy as np

RANK_RTOL = 1e-10
# relative spectral-norm agreement with numpy's pinv; the same figure as the
# package's pinned STEWART_ORACLE_REL acceptance threshold
ORACLE_RTOL = 1e-8


def read_mtx(path) -> np.ndarray:
    """Minimal Matrix Market reader (array/coordinate, real/complex, general)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    words = header.split()
    fmt, field = words[2].lower(), words[3].lower()
    lines = [ln for ln in body.split("\n") if ln.strip() and not ln.lstrip().startswith("%")]
    size = [int(x) for x in lines[0].split()]
    rows, cols = size[0], size[1]
    tokens = np.array(" ".join(lines[1:]).split(), dtype=float)
    width = 2 if field == "complex" else 1
    if fmt == "array":
        vals = tokens.reshape(rows * cols, width)
        flat = vals[:, 0] + 1j * vals[:, 1] if width == 2 else vals[:, 0].astype(complex)
        return flat.reshape(cols, rows).T.copy()
    entries = tokens.reshape(size[2], 2 + width)
    mat = np.zeros((rows, cols), dtype=complex)
    vals = entries[:, 2] + 1j * entries[:, 3] if width == 2 else entries[:, 2]
    np.add.at(mat, (entries[:, 0].astype(int) - 1, entries[:, 1].astype(int) - 1), vals)
    return mat


def pinv(a) -> np.ndarray:
    u, s, vh = np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=False)
    keep = s > RANK_RTOL * s[0]
    return (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T


def sigma(a) -> np.ndarray:
    return np.linalg.svd(np.asarray(a), compute_uv=False)


def norm2(a) -> float:
    a = np.asarray(a)
    return float(sigma(a)[0]) if a.size else 0.0


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    return norm2(got - want) / max(norm2(want), np.finfo(float).tiny)


def close(got, want, rtol=ORACLE_RTOL):
    """None when got matches want to rtol in the spectral norm, else a reason."""
    err = rel_err(got, want)
    return None if err <= rtol else f"relative error {err:.3e} > {rtol:.0e}"


def close_scalar(got, want, rtol=ORACLE_RTOL):
    if got is None:
        return "missing value"
    err = abs(float(got) - want) / max(abs(want), np.finfo(float).tiny)
    return None if err <= rtol else f"{got!r} vs numpy {want!r} (relative error {err:.3e})"
