import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pinvperturb import (
    DecompositionError,
    ShapeMismatchError,
    SingularMatrixError,
    Tolerances,
    adjoint,
    as_matrix,
    null_space_basis,
    orthonormal_range_basis,
    principal_angle_gap,
    singular_values,
    solve_square,
    spectral_norm,
    svd,
)
from pinvperturb import linalg
from pinvperturb.generators import haar_unitary
from conftest import random_complex


class TestAsMatrix:
    def test_keeps_real_and_int_real(self):
        # the dtype decides the field: a real or integer input is float64
        for a in ([[1, 2], [3, 4]], np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32),
                  np.array([[True, False], [False, True]])):
            m = as_matrix(a)
            assert m.dtype == np.float64
            np.testing.assert_array_equal(m, np.asarray(a, dtype=np.float64))

    def test_complex_stays_complex_even_with_zero_imaginary_parts(self):
        for a in (np.eye(2, dtype=np.complex64), np.eye(2, dtype=np.complex128),
                  [[1 + 0j, 2], [3, 4]]):
            assert as_matrix(a).dtype == np.complex128

    def test_returns_a_copy(self):
        a = np.eye(2)
        m = as_matrix(a)
        m[0, 0] = 5.0
        assert a[0, 0] == 1.0

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty_dims(self):
        with pytest.raises(ShapeMismatchError):
            as_matrix(np.zeros((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.inf], [0.0, 1.0]])


class TestTolerances:
    def test_defaults_valid(self):
        t = Tolerances()
        assert 0 < t.rank_rel < 1
        assert t.margin_strict < 1

    @pytest.mark.parametrize("field", ["rank_rel", "eq_abs", "eq_rel", "margin_strict"])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("field", ["rank_rel", "eq_abs", "eq_rel", "margin_strict"])
    def test_rejects_non_finite(self, field, value):
        # an infinite equality slack certifies any pair, and its report
        # cannot be serialized
        with pytest.raises(ValueError, match="finite"):
            Tolerances(**{field: value})

    def test_rejects_large_rank_rel_and_margin(self):
        with pytest.raises(ValueError):
            Tolerances(rank_rel=1.0)
        with pytest.raises(ValueError):
            Tolerances(margin_strict=1.0)


_small_complex = arrays(
    np.complex128,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


class TestAdjoint:
    def test_real_symmetric_fixed(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        np.testing.assert_array_equal(adjoint(a), a)

    def test_conjugates(self):
        np.testing.assert_array_equal(adjoint([[1j]]), [[-1j]])

    def test_shape_law(self):
        assert adjoint(np.ones((2, 3))).shape == (3, 2)

    @given(a=_small_complex)
    def test_involution_exact(self, a):
        np.testing.assert_array_equal(adjoint(adjoint(a)), as_matrix(a))

    @given(a=_small_complex, data=st.data())
    @settings(max_examples=50)
    def test_product_rule(self, a, data):
        cols = as_matrix(a).shape[1]
        b = data.draw(
            arrays(
                np.complex128,
                st.tuples(st.just(cols), st.integers(1, 6)),
                elements=st.complex_numbers(
                    max_magnitude=10.0, allow_nan=False, allow_infinity=False
                ),
            )
        )
        lhs = adjoint(a @ b)
        rhs = adjoint(b) @ adjoint(a)
        assert spectral_norm(lhs - rhs) <= 1e-10 + 1e-10 * spectral_norm(lhs)


class TestSvd:
    def test_diagonal(self):
        np.testing.assert_allclose(svd(np.diag([3.0, 1.0, 0.0])).sigma, [3.0, 1.0, 0.0])

    def test_unitary_has_unit_sigma(self):
        q, _ = np.linalg.qr(random_complex(np.random.default_rng(3), 4, 4))
        np.testing.assert_allclose(svd(q).sigma, np.ones(4), atol=1e-12)

    def test_rank_one_sigma(self):
        # eigenvalues of A*A for [[1,1],[0,0]] are 2 and 0
        f = svd(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(f.sigma, [np.sqrt(2.0), 0.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_factor_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        a = random_complex(rng, m, n)
        f = svd(a)
        k = min(m, n)
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma >= 0)
        slack = 1e-10 * max(1.0, f.sigma[0])
        assert spectral_norm(f.u.conj().T @ f.u - np.eye(k)) <= slack
        assert spectral_norm(f.v.conj().T @ f.v - np.eye(k)) <= slack
        assert spectral_norm((f.u * f.sigma) @ f.v.conj().T - a) <= slack

    def test_deterministic(self):
        a = random_complex(np.random.default_rng(9), 12, 7)
        f1, f2 = svd(a), svd(a)
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.sigma, f2.sigma)
        np.testing.assert_array_equal(f1.v, f2.v)


class TestSvdRetriedOnTheAdjoint:
    """An SVD that fails to converge is taken of the adjoint, factors swapped."""

    @staticmethod
    def _fail_on(monkeypatch, bad):
        real = np.linalg.svd

        def svd_failing_on_bad(m, *args, **kwargs):
            if m.shape == bad.shape and np.array_equal(m, bad):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_failing_on_bad)

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4)])
    def test_factors_of_the_adjoint_are_swapped(self, monkeypatch, shape):
        a = as_matrix(random_complex(np.random.default_rng(11), *shape))
        expected = svd(a)
        self._fail_on(monkeypatch, a)
        f = svd(a)
        np.testing.assert_allclose(f.sigma, expected.sigma, rtol=1e-13)
        assert f.u.shape == expected.u.shape and f.v.shape == expected.v.shape
        k = min(shape)
        assert spectral_norm(f.u.conj().T @ f.u - np.eye(k)) <= 1e-12
        assert spectral_norm(f.v.conj().T @ f.v - np.eye(k)) <= 1e-12
        assert spectral_norm((f.u * f.sigma) @ f.v.conj().T - a) <= 1e-12
        np.testing.assert_allclose(singular_values(a), expected.sigma, rtol=1e-13)
        # the null basis reads the square right factor of a wide matrix
        basis = null_space_basis(a)
        assert basis.shape == (shape[1], shape[1] - k)
        assert basis.size == 0 or spectral_norm(a @ basis) <= 1e-12

    def test_failure_on_the_adjoint_too_is_a_decomposition_error(self, monkeypatch):
        a = as_matrix(random_complex(np.random.default_rng(12), 4, 3))
        self._fail_on(monkeypatch, a)
        self._fail_on(monkeypatch, a.conj().T)
        with pytest.raises(DecompositionError, match="shape \\(4, 3\\)"):
            svd(a)


_TINY = 2.0**-1072  # a few subnormal ulps: the rounding of a subnormal result


def _matrix(rows, cols, seed, kind, log_scale):
    """A test matrix: complex Gaussian at 10**log_scale, orthonormal columns
    or rows of a Haar unitary (where the Gram rounding is worst), entries of
    up to 1.7e308 in both parts, or zero."""
    rng = np.random.default_rng(seed)
    if kind == "huge":
        return 1.7e308 * (rng.uniform(-1.0, 1.0, (rows, cols))
                          + 1j * rng.uniform(-1.0, 1.0, (rows, cols)))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.complex128)
    if kind == "unitary":
        q = haar_unitary(max(rows, cols), rng)[:rows, :cols]
        return 10.0**log_scale * q
    return 10.0**log_scale * random_complex(rng, rows, cols)


_MATRICES = dict(
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["gaussian", "unitary", "huge", "zero"]),
    # ordinary, subnormal and near-overflow scales
    log_scale=st.one_of(st.floats(-8.0, 8.0), st.floats(-323.0, -300.0),
                        st.floats(300.0, 307.0)),
)


class TestSpectralNormProperties:
    @given(**_MATRICES)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_svd_within_the_proven_bound(self, rows, cols, seed, kind,
                                                        log_scale):
        a = _matrix(rows, cols, seed, kind, log_scale)
        self._agrees(a)

    def test_agrees_on_a_subnormal_scalar(self):
        self._agrees(np.array([[-1.417e-313]]))
        self._agrees(np.array([[-1.417e-313 + 5e-324j]]))

    def test_agrees_on_entries_near_the_largest_float(self):
        self._agrees(np.array([[1e308 + 1e308j, -1e308], [1e308j, 1e308 - 1e308j]]))
        self._agrees(np.array([[1e308 - 1e308j]]))

    @staticmethod
    def _agrees(a):
        got = spectral_norm(a)
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        # the Gram rounding (_norm_room) plus the SVD's own error (_room)
        room = linalg._norm_room(a.shape) + linalg._room(a.shape)
        if math.isinf(want) or math.isinf(got):
            assert min(got, want) >= np.finfo(np.float64).max * (1.0 - room)
        else:
            assert abs(got - want) <= room * want + _TINY
        if not a.any():
            assert got == 0.0

    @given(**_MATRICES, k=st.integers(-40, 40))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, rows, cols, seed, kind, log_scale, k):
        a = _matrix(rows, cols, seed, kind, min(max(log_scale, -250.0), 250.0))
        if kind == "huge":
            a = a * 2.0**-60
        assert spectral_norm(np.ldexp(a.real, k) + 1j * np.ldexp(a.imag, k)) == \
            math.ldexp(spectral_norm(a), k)

    @given(**_MATRICES)
    @settings(max_examples=300, deadline=None)
    def test_lies_within_the_certified_bounds(self, rows, cols, seed, kind, log_scale):
        a = _matrix(rows, cols, seed, kind, log_scale)
        lo, hi = linalg._norm_bounds(a)
        if hi < math.inf:
            assert lo <= spectral_norm(a) <= hi


class TestSpectralNorm:
    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0)

    def test_shift_matrix(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)

    def test_empty_basis_product(self):
        assert spectral_norm(np.zeros((3, 0))) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, 6, 4)
        b = random_complex(rng, 4, 5)
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10

    def test_eigenvalue_failure_is_a_decomposition_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(DecompositionError, match="shape \\(4, 3\\)"):
            spectral_norm(np.ones((4, 3)))


class TestSolveSquare:
    def test_identity(self):
        b = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(solve_square(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_square(np.diag([2.0, 4.0]), np.eye(2))
        np.testing.assert_allclose(x, np.diag([0.5, 0.25]))

    def test_residual_random_5x5(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 5, 5)
        b = random_complex(rng, 5, 3)
        x = solve_square(a, b)
        resid = spectral_norm(a @ x - b)
        assert resid <= 1e-10 * spectral_norm(a) * spectral_norm(x) + 1e-10

    def test_singular_names_smallest_sigma(self):
        with pytest.raises(SingularMatrixError) as exc:
            solve_square(np.diag([1.0, 0.0]), np.eye(2))
        assert exc.value.smallest_sigma == pytest.approx(0.0)
        assert "singular" in str(exc.value)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatchError):
            solve_square(np.ones((2, 3)), np.ones((2, 2)))


class TestRangeAndNullBases:
    def test_zero_matrix_empty_basis(self):
        assert orthonormal_range_basis(np.zeros((3, 2))).shape == (3, 0)

    def test_identity_spans_everything(self):
        b = orthonormal_range_basis(np.eye(3))
        # unitary freedom: compare projections, not the basis itself
        np.testing.assert_allclose(b @ b.conj().T, np.eye(3), atol=1e-12)

    def test_rank_one_direction(self):
        b = orthonormal_range_basis(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert b.shape == (2, 1)
        expected_proj = np.array([[0.2, 0.4], [0.4, 0.8]])
        np.testing.assert_allclose(b @ b.conj().T, expected_proj, atol=1e-12)

    def test_bases_complement(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 6, 4)
        a[:, 3] = a[:, 0]  # force rank deficiency
        rb = orthonormal_range_basis(adjoint(a))
        nb = null_space_basis(a)
        assert rb.shape[1] + nb.shape[1] == 4
        total = rb @ rb.conj().T + nb @ nb.conj().T
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
        assert spectral_norm(a @ nb) <= 1e-12 * spectral_norm(a)


class TestPrincipalAngleGap:
    def test_identical(self):
        b = np.eye(3)[:, :2]
        assert principal_angle_gap(b, b) == pytest.approx(0.0)

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert principal_angle_gap(e1, e2) == pytest.approx(1.0)

    def test_45_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        # eigenvalues of the 2x2 projection difference give sin(45 deg)
        assert principal_angle_gap(e1, diag) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_empty_basis_is_trivial_subspace(self):
        e1 = np.array([[1.0], [0.0]])
        empty = np.zeros((2, 0))
        assert principal_angle_gap(empty, empty) == 0.0
        assert principal_angle_gap(e1, empty) == pytest.approx(1.0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            principal_angle_gap(np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]]))

    def test_rejects_mixed_ambient(self):
        with pytest.raises(ShapeMismatchError):
            principal_angle_gap(np.eye(3)[:, :1], np.eye(2)[:, :1])

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        bases = []
        for _ in range(3):
            q, _ = np.linalg.qr(random_complex(rng, 6, int(rng.integers(1, 4))))
            bases.append(q)
        ab = principal_angle_gap(bases[0], bases[1])
        ba = principal_angle_gap(bases[1], bases[0])
        bc = principal_angle_gap(bases[1], bases[2])
        ac = principal_angle_gap(bases[0], bases[2])
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ac <= ab + bc + 1e-10
