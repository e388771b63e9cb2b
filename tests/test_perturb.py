import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinvperturb import (
    HypothesisRefusal,
    InvariantViolation,
    adversarial_pair,
    check_relative_bound,
    error_bound_lambda2_zero,
    error_bound_stewart,
    gamma_continuity_bound,
    neumann_pinv,
    norm_bounds_ding_huang,
    null_space_basis,
    principal_angle_gap,
    pseudoinverse,
    random_relative_perturbation,
    reduced_min_modulus,
    spectral_norm,
    update_relative_surjective,
    update_stewart,
)
from pinvperturb import perturb
from pinvperturb.generators import GenSpec, haar_unitary, random_operator, s_alpha
from pinvperturb.linalg import DEFAULT_TOL
from conftest import random_complex, rank_jump_pair


def _surjective(rng, rows, cols, gamma=0.5, norm=1.5):
    if rows == 1:
        norm = gamma
    return random_operator(GenSpec(rows, cols, rows, gamma, norm, int(rng.integers(2**62))))


class TestUpdateStewart:
    def test_zero_perturbation_returns_pinv(self):
        t = np.diag([2.0, 1.0, 0.0])
        res = update_stewart(t, np.zeros((3, 3)))
        assert res.method == "stewart_left"
        assert spectral_norm(res.pinv_updated - pseudoinverse(t).pinv) <= 1e-14
        assert res.oracle_discrepancy <= 1e-14

    def test_diagonal_update(self):
        res = update_stewart(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))
        np.testing.assert_allclose(res.pinv_updated, np.diag([2.0 / 3.0, 0.0]), atol=1e-14)
        assert res.oracle_discrepancy <= 1e-14
        assert res.norms_used["norm_TdS"] == pytest.approx(0.5)

    def test_rectangular_scalar_perturbation(self):
        t = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # 3x2
        res = update_stewart(t, 0.2 * t)
        np.testing.assert_allclose(
            res.pinv_updated, pseudoinverse(t).pinv / 1.2, atol=1e-14
        )

    def test_norm_violation_refused_with_name(self):
        t, s = adversarial_pair("norm_violation", seed=4)
        with pytest.raises(HypothesisRefusal) as exc:
            update_stewart(t, s)
        assert "‖T†S‖" in str(exc.value)
        assert exc.value.condition == "norm_TdS"

    def test_range_violation_refused(self):
        t, s = adversarial_pair("range_violation", seed=4)
        with pytest.raises(HypothesisRefusal) as exc:
            update_stewart(t, s)
        assert exc.value.condition == "range_inclusion"

    def test_null_violation_refused(self):
        t, s = adversarial_pair("null_violation", seed=4)
        with pytest.raises(HypothesisRefusal) as exc:
            update_stewart(t, s)
        assert exc.value.condition == "null_inclusion"

    @pytest.mark.parametrize("seed", range(8))
    def test_oracle_and_bound_random(self, seed):
        rng = np.random.default_rng(seed)
        t = random_operator(GenSpec(7, 5, 4, 0.4, 1.4, int(rng.integers(2**62))))
        alpha = float(rng.uniform(0.05, 0.95)) * 2.0 * reduced_min_modulus(t)
        s = s_alpha(t, alpha)
        res = update_stewart(t, s)
        norm_td = res.norms_used["norm_Td"]
        assert res.oracle_discrepancy <= 1e-8 * norm_td
        measured = spectral_norm(pseudoinverse(t + s).pinv - pseudoinverse(t).pinv)
        assert res.bound_apriori >= measured - 1e-10

    def test_result_contradicted_by_its_oracle_is_not_returned(self):
        # the Stewart hypotheses hold, but the SVD of T+S reads rank 2 and its
        # pseudoinverse is 1e15 away from the closed form: the route must not
        # return a result that its own oracle contradicts
        t, s = rank_jump_pair()
        assert pseudoinverse(t).rank == 1 and pseudoinverse(t + s).rank == 2
        with pytest.raises(InvariantViolation, match="Stewart update"):
            update_stewart(t, s)


class TestUpdateRelativeSurjective:
    def test_zero_perturbation(self):
        t = np.array([[2.0, 0.0, 1.0]])
        res = update_relative_surjective(t, np.zeros((1, 3)), 0.0, 0.0)
        assert spectral_norm(res.pinv_updated - pseudoinverse(t).pinv) <= 1e-12

    def test_row_vector_case(self):
        t = np.array([[1.0, 0.0]])
        s = np.array([[0.5, 0.0]])
        res = update_relative_surjective(t, s, 0.5, 0.0)
        np.testing.assert_allclose(res.pinv_updated, [[2.0 / 3.0], [0.0]], atol=1e-14)
        assert res.method == "relative_surjective"
        assert res.bound_apriori == pytest.approx(1.0)

    def test_unitary_contraction(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(random_complex(rng, 2, 2))
        res = update_relative_surjective(np.eye(2), 0.3 * q, 0.3, 0.0)
        assert res.oracle_discrepancy <= 1e-9

    def test_not_surjective_refused(self):
        with pytest.raises(HypothesisRefusal) as exc:
            update_relative_surjective(np.diag([1.0, 0.0]), np.zeros((2, 2)), 0.1, 0.0)
        assert exc.value.condition == "surjective"

    def test_failed_bound_refused(self):
        with pytest.raises(HypothesisRefusal) as exc:
            update_relative_surjective(np.eye(2), 0.9 * np.eye(2), 0.5, 0.0)
        assert exc.value.condition == "relative_bound"

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_cap_and_growth(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(2, 7))
        t = _surjective(rng, rows, int(rng.integers(rows, 9)))
        lam = float(rng.uniform(0.1, 0.9))
        s = random_relative_perturbation(t, lam, int(rng.integers(2**62)))
        res = update_relative_surjective(t, s, lam, 0.0)
        norm_td = res.norms_used["norm_Td"]
        assert res.oracle_discrepancy <= 1e-8 * max(1.0, norm_td)
        assert spectral_norm(pseudoinverse(t + s).pinv) <= norm_td / (1.0 - lam) + 1e-10
        # lower growth: |(T+S)x| >= (1 - lam) |Tx| on sampled unit vectors
        x = random_complex(rng, t.shape[1], 200)
        x /= np.linalg.norm(x, axis=0)
        lhs = np.linalg.norm((t + s) @ x, axis=0)
        rhs = (1.0 - lam) * np.linalg.norm(t @ x, axis=0)
        assert np.all(lhs >= rhs - 1e-10)
        # null spaces coincide when the bound is certified
        assert principal_angle_gap(null_space_basis(t), null_space_basis(t + s)) <= 1e-8


class TestNeumann:
    def test_s_equals_t_one_term(self):
        t = np.array([[1.0, 0.0]])
        res = neumann_pinv(t, t)
        assert res.terms_used == 1
        assert res.ratio == 0.0
        assert res.converged
        assert res.residual_bound == 0.0
        np.testing.assert_allclose(res.pinv_s, [[1.0], [0.0]], atol=1e-14)

    def test_scalar_geometric_series(self):
        res = neumann_pinv(np.array([[1.0, 0.0]]), np.array([[1.2, 0.0]]))
        assert res.ratio == pytest.approx(0.2)
        np.testing.assert_allclose(res.pinv_s, [[1.0 / 1.2], [0.0]], atol=1e-12)
        assert res.converged

    def test_term_count_bound(self):
        rng = np.random.default_rng(8)
        n = random_complex(rng, 2, 2)
        n *= 0.4 / spectral_norm(n)
        res = neumann_pinv(np.eye(2), np.eye(2) + n)
        # default eps is 1e-12 |pinv(T)| and |pinv(T)| = 1 here
        assert res.terms_used <= int(np.ceil(np.log(1e-12) / np.log(0.4))) + 1

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(9)
        n = random_complex(rng, 2, 2)
        n *= 0.9 / spectral_norm(n)
        res = neumann_pinv(np.eye(2), np.eye(2) + n, max_terms=3)
        assert not res.converged
        assert res.terms_used == 3
        # the geometric tail still bounds the truncation error
        err = spectral_norm(res.pinv_s - pseudoinverse(np.eye(2) + n).pinv)
        assert err <= res.residual_bound + 1e-10

    def test_ratio_refusal(self):
        t = np.array([[1.0, 0.0]])
        with pytest.raises(HypothesisRefusal) as exc:
            neumann_pinv(t, 2.5 * t)
        assert exc.value.condition == "norm_STd"

    def test_null_obstruction_refusal(self):
        t = np.array([[1.0, 0.0]])  # N(T) = span(e2)
        s = np.array([[1.0, 0.3]])  # S - T hits e2
        with pytest.raises(HypothesisRefusal) as exc:
            neumann_pinv(t, s)
        assert exc.value.condition == "null_inclusion"

    def test_not_surjective_refused(self):
        with pytest.raises(HypothesisRefusal):
            neumann_pinv(np.diag([1.0, 0.0]), np.diag([1.1, 0.0]))

    @pytest.mark.parametrize("ratio", [0.15, 0.5, 0.85])
    def test_tail_certificate_random(self, ratio):
        rng = np.random.default_rng(int(ratio * 100))
        t = _surjective(rng, 4, 6)
        w = random_complex(rng, 4, 4)
        d = (ratio / spectral_norm(w)) * (w @ t)
        res = neumann_pinv(t, t + d)
        assert res.converged
        err = spectral_norm(res.pinv_s - pseudoinverse(t + d).pinv)
        assert err <= res.residual_bound + 1e-10
        cap = int(np.ceil(np.log(1e-12) / np.log(res.ratio))) + 2
        assert res.terms_used <= cap


def test_neumann_on_a_small_multiple_of_a_unitary_step():
    """S = T + 0.005 U T: (S-T)T' = 0.005 U has 60 singular values that agree
    to 2e-17, and single-threaded OpenBLAS fails to factor it with vectors.
    A fresh process pins the BLAS thread count before numpy loads."""
    script = textwrap.dedent("""
        import numpy as np
        from pinvperturb import GenSpec, haar_unitary, neumann_pinv, random_operator
        rng = np.random.default_rng((906, 2, 534))
        t = random_operator(GenSpec(60, 90, 60, 0.5, 2.0, int(rng.integers(0, 2**62))))
        s = t + 0.005 * (haar_unitary(60, rng) @ t)
        res = neumann_pinv(t, s)
        ref = np.linalg.pinv(s)
        print(res.converged, np.linalg.norm(res.pinv_s - ref, 2) / np.linalg.norm(ref, 2))
    """)
    src = str(Path(perturb.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-400:]
    converged, rel = proc.stdout.split()
    assert converged == "True"
    assert float(rel) <= 1e-12


class TestNeumannOrderCertificate:
    """Every partial sum must lie within its geometric tail of the oracle.

    The orders are certified from one oracle error at the last order; these
    tests make sure a broken order is still caught and named, and that the
    exact per-order replay agrees with the certified path.
    """

    @staticmethod
    def _pair(ratio):
        rng = np.random.default_rng(21)
        t = _surjective(rng, 6, 9)
        w = random_complex(rng, 6, 6)
        return t, t + (ratio / spectral_norm(w)) * (w @ t)

    @staticmethod
    def _spy_replays(monkeypatch):
        replays = []
        replay = perturb._replay_orders

        def spy(*args):
            replays.append(args)
            return replay(*args)

        monkeypatch.setattr(perturb, "_replay_orders", spy)
        return replays

    def test_injected_oracle_error_names_the_first_broken_order(self, monkeypatch):
        t, s = self._pair(0.5)
        td = pseudoinverse(t).pinv
        norm_td = spectral_norm(td)
        step = (s - t) @ td
        ratio = spectral_norm(step)
        rng = np.random.default_rng(5)
        direction = random_complex(rng, *td.shape)
        # an oracle off by about the tail at order 8: the early orders stay
        # inside their tails, the later ones cannot
        delta = (norm_td * ratio**8 / (1.0 - ratio) / spectral_norm(direction)) * direction
        wrong = pseudoinverse(s).pinv + delta

        # the per-order check as a plain loop over the partial sums
        term, total, broken = td, td.copy(), None
        for k in range(1, 200):
            if spectral_norm(total - wrong) > norm_td * ratio**k / (1.0 - ratio) + 1e-10:
                broken = k
                break
            term = -(term @ step)
            total = total + term
        assert broken is not None and broken > 1

        def wrong_oracle(m, tol=None):
            pr = pseudoinverse(m, tol)
            return dataclasses.replace(pr, pinv=wrong) if np.array_equal(m, s) else pr

        monkeypatch.setattr(perturb, "pseudoinverse", wrong_oracle)
        with pytest.raises(InvariantViolation,
                           match=f"^Neumann partial sum after {broken} terms is off by"):
            neumann_pinv(t, s)

    def test_forced_replay_is_bit_identical(self, monkeypatch):
        t, s = self._pair(0.7)
        norms = []

        def counting_norm(a):
            norms.append(a)
            return spectral_norm(a)

        monkeypatch.setattr(perturb, "spectral_norm", counting_norm)
        certified = neumann_pinv(t, s)
        measured = len(norms)
        replays = self._spy_replays(monkeypatch)
        monkeypatch.setattr(perturb, "_certify_orders",
                            lambda err, term_norms, *rest: [False] * len(term_norms))
        norms.clear()
        replayed = neumann_pinv(t, s)
        assert len(replays) == 1
        # the oracle error was measured exactly once its Frobenius bound left
        # orders uncertified, and the replay measured it at every order
        assert len(norms) == measured + 1 + certified.terms_used
        assert np.array_equal(replayed.pinv_s, certified.pinv_s)
        assert replayed.terms_used == certified.terms_used
        assert replayed.converged == certified.converged
        assert replayed.last_term_norm == certified.last_term_norm

    @pytest.mark.parametrize("ratio", [0.05, 0.5, 0.9])
    def test_unit_scale_needs_no_replay(self, monkeypatch, ratio):
        replays = self._spy_replays(monkeypatch)
        res = neumann_pinv(*self._pair(ratio))
        assert res.converged
        assert replays == []

    @pytest.mark.parametrize("scale", [
        1.0,
        pytest.param(1e-6, marks=pytest.mark.xfail(
            strict=True, raises=InvariantViolation,
            reason="known defect: the per-order check has no relative rounding slack")),
    ])
    def test_small_ratio_pair_at_small_scale(self, scale):
        t = random_operator(GenSpec(rows=60, cols=90, rank=60, gamma_target=0.5,
                                    norm_target=1.5, seed=1))
        u = haar_unitary(60, np.random.default_rng(0))
        s = t + 0.005 * (u @ t)
        assert neumann_pinv(scale * t, scale * s).converged


class TestErrorBounds:
    def test_stewart_zero(self):
        assert error_bound_stewart(np.eye(2), np.zeros((2, 2))) == 0.0

    def test_stewart_diagonal_plugin(self):
        bound = error_bound_stewart(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))
        assert bound == pytest.approx(1.0)
        actual = abs(2.0 / 3.0 - 1.0)
        assert actual <= bound

    def test_stewart_scalar_matrix(self):
        bound = error_bound_stewart(np.eye(2), 0.1 * np.eye(2))
        assert bound == pytest.approx(0.1 / 0.9)
        actual = spectral_norm(pseudoinverse(1.1 * np.eye(2)).pinv - np.eye(2))
        assert actual == pytest.approx(1.0 - 1.0 / 1.1, abs=1e-12)
        assert actual <= bound

    def test_stewart_refusal(self):
        with pytest.raises(HypothesisRefusal):
            error_bound_stewart(np.eye(2), 1.5 * np.eye(2))

    def test_lambda2_zero_plugin(self):
        bound = error_bound_lambda2_zero(np.array([[1.0, 0.0]]), np.array([[0.5, 0.0]]))
        assert bound == pytest.approx(1.0)
        assert abs(1.0 / 1.5 - 1.0) <= bound

    def test_lambda2_zero_monotone_in_norm(self):
        t = np.eye(2)
        bounds = [
            error_bound_lambda2_zero(t, c * np.eye(2)) for c in (0.5, 0.9, 0.99)
        ]
        assert bounds[0] < bounds[1] < bounds[2]
        assert bounds[2] == pytest.approx(99.0)

    def test_lambda2_zero_refusals(self):
        with pytest.raises(HypothesisRefusal):
            error_bound_lambda2_zero(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(HypothesisRefusal):
            error_bound_lambda2_zero(np.eye(2), np.eye(2))

    def test_stewart_refuses_outside_the_range(self):
        # |T'S| = 0, but S adds a direction to the range: (T+S)' moves by 1000
        t, s = np.diag([1.0, 0.0]), np.diag([0.0, 1e-3])
        with pytest.raises(HypothesisRefusal) as exc:
            error_bound_stewart(t, s)
        assert exc.value.condition == "range_inclusion"
        assert spectral_norm(pseudoinverse(t + s).pinv - pseudoinverse(t).pinv) == 1000.0

    def test_stewart_refuses_outside_the_null_space(self):
        t, s = np.diag([1.0, 0.0]), np.array([[0.0, 1e-3], [0.0, 0.0]])
        with pytest.raises(HypothesisRefusal) as exc:
            error_bound_stewart(t, s)
        assert exc.value.condition == "null_inclusion"

    def test_lambda2_zero_refuses_outside_the_null_space(self):
        # T is surjective and |ST'| = 0, but S does not annihilate N(T)
        with pytest.raises(HypothesisRefusal) as exc:
            error_bound_lambda2_zero(np.array([[1.0, 0.0]]), np.array([[0.0, 0.5]]))
        assert exc.value.condition == "null_inclusion"

    def test_bounds_refuse_within_the_strict_margin(self):
        # |T'S| = |ST'| = 1 - 5e-9 lies below 1 but not below 1 - margin_strict,
        # where 1 / (1 - |T'S|) would certify a bound of 2e8
        t, s = np.eye(2), (1.0 - 5e-9) * np.diag([1.0, 0.0])
        with pytest.raises(HypothesisRefusal) as exc:
            error_bound_stewart(t, s)
        assert exc.value.condition == "norm_TdS"
        with pytest.raises(HypothesisRefusal) as exc:
            error_bound_lambda2_zero(t, s)
        assert exc.value.condition == "norm_STd"

    @staticmethod
    def _small_pair(seed):
        """A pair of up to 3 x 4: T of any rank with gamma in [0.5, 1] and a
        dense S, or one kept inside R(T), N(T)-perp or both. |S| < 0.9 gamma
        keeps T+S from the cancellation that can leave a rounding-level
        singular value above the rank cutoff, a known separate defect."""
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        gamma = float(rng.uniform(0.5, 1.0))
        norm = gamma * float(rng.uniform(1.0, 3.0)) if rank > 1 else gamma
        t = random_operator(GenSpec(rows, cols, rank, gamma, norm, int(rng.integers(2**62))))
        s = random_complex(rng, rows, cols)
        kind = int(rng.integers(0, 4))
        if kind == 1:
            s = t @ rng.standard_normal((cols, cols))
        elif kind == 2:
            s = rng.standard_normal((rows, rows)) @ t
        elif kind == 3:
            s = t @ rng.standard_normal((cols, rows)) @ t
        size = spectral_norm(s)
        return t, (float(rng.uniform(0.0, 0.9)) * gamma / size) * s if size else s

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=3)  # rank-deficient T, S outside its range: Stewart's bound fails
    @example(seed=378)  # surjective T, S outside N(T)-perp: the lambda2 = 0 bound fails
    @settings(max_examples=200, deadline=None)
    def test_a_returned_bound_dominates_the_change(self, seed):
        t, s = self._small_pair(seed)
        measured = spectral_norm(pseudoinverse(t + s).pinv - pseudoinverse(t).pinv)
        for bound_of in (error_bound_stewart, error_bound_lambda2_zero):
            try:
                bound = bound_of(t, s)
            except HypothesisRefusal:
                continue
            assert measured <= bound + DEFAULT_TOL.eq(bound)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("draw", [1029, 13450])
    def test_stewart_bound_dominates_the_change_across_a_rank_jump(self, draw):
        # the Stewart hypotheses hold, but T+S reads rank 2 and (T+S)' lies
        # 1e14 or more from T', far above the bound of about 2 to 4: the
        # route must refuse to certify or return a bound that dominates
        t, s = rank_jump_pair(draw)
        measured = spectral_norm(pseudoinverse(t + s).pinv - pseudoinverse(t).pinv)
        try:
            bound = error_bound_stewart(t, s)
        except InvariantViolation:
            return
        assert measured <= bound + DEFAULT_TOL.eq(bound)


class TestGammaContinuity:
    def test_zero_perturbation(self):
        achieved, bound = gamma_continuity_bound(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        assert achieved == 0.0 and bound == 0.0

    def test_diagonal_values(self):
        achieved, bound = gamma_continuity_bound(np.diag([1.0, 0.0]), np.diag([0.5, 0.0]))
        assert achieved == pytest.approx(0.5)
        # beta = 1 / ((2/3) * 0.5) = 3, bound = beta * 0.5
        assert bound == pytest.approx(1.5)

    def test_sequence_decreases(self):
        rng = np.random.default_rng(3)
        t = random_operator(GenSpec(5, 4, 3, 0.5, 1.5, int(rng.integers(2**62))))
        alpha = 0.8 * reduced_min_modulus(t)
        pairs = [gamma_continuity_bound(t, s_alpha(t, alpha / n)) for n in (1, 2, 4, 8)]
        achieved = [p[0] for p in pairs]
        bounds = [p[1] for p in pairs]
        assert all(a <= b + 1e-10 for a, b in pairs)
        assert all(x >= y - 1e-12 for x, y in zip(achieved, achieved[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(bounds, bounds[1:]))

    def test_refusal_without_hypotheses(self):
        with pytest.raises(HypothesisRefusal):
            gamma_continuity_bound(np.eye(2), 2.0 * np.eye(2))


class TestDingHuangBounds:
    def test_zero_perturbation_all_cases(self):
        t = np.eye(3)
        for case in ("injective", "surjective", "general"):
            db = norm_bounds_ding_huang(t, np.zeros((3, 3)), case)
            assert db.pinv_norm_bound == pytest.approx(1.0)
            assert db.measured_pinv_norm <= db.pinv_norm_bound + 1e-12

    def test_injective_column(self):
        t = np.array([[1.0], [0.0]])
        s = np.array([[0.4], [0.0]])
        db = norm_bounds_ding_huang(t, s, "injective")
        assert db.measured_pinv_norm == pytest.approx(1.0 / 1.4)
        assert db.pinv_norm_bound == pytest.approx(1.0 / 0.6)
        assert db.pinv_diff_bound is not None

    def test_general_diagonal(self):
        db = norm_bounds_ding_huang(np.diag([1.0, 0.0]), np.diag([0.3, 0.0]), "general")
        assert db.measured_pinv_norm == pytest.approx(1.0 / 1.3)
        assert db.pinv_norm_bound == pytest.approx(1.0 / 0.7)
        assert db.pinv_diff_bound is None

    def test_surjective_random(self):
        rng = np.random.default_rng(12)
        t = _surjective(rng, 3, 5)
        s = random_relative_perturbation(t, 0.4, 7)
        db = norm_bounds_ding_huang(t, s, "surjective")
        assert db.measured_pinv_norm <= db.pinv_norm_bound + 1e-10
        assert db.measured_pinv_diff <= db.pinv_diff_bound + 1e-10

    def test_structural_refusals(self):
        with pytest.raises(HypothesisRefusal) as exc:
            norm_bounds_ding_huang(np.array([[1.0, 0.0]]), np.zeros((1, 2)), "injective")
        assert "injective" in str(exc.value)
        with pytest.raises(HypothesisRefusal) as exc:
            norm_bounds_ding_huang(np.array([[1.0], [0.0]]), np.zeros((2, 1)), "surjective")
        assert "surjective" in str(exc.value)
        with pytest.raises(ValueError):
            norm_bounds_ding_huang(np.eye(2), np.zeros((2, 2)), "sideways")

    @pytest.mark.xfail(strict=True, raises=InvariantViolation,
                       reason="known defect: the slack eq(bound) sits below the rounding"
                              " eps |T'| of the measured change")
    def test_difference_bound_at_a_large_pinv_norm(self):
        # kappa(T) = 1 and |T'| = 1e8: the change |(T+S)' - T'| = 0.1 is
        # measured to about eps |T'| = 2e-8, far above eq(0.1) = 1.1e-10
        t = random_operator(GenSpec(rows=6, cols=5, rank=5, gamma_target=1e-8,
                                    norm_target=1e-8, seed=0))
        db = norm_bounds_ding_huang(t, 1e-9 * t, "injective")
        assert db.pinv_diff_bound is not None


class TestTwoSidedDingInequalities:
    @pytest.mark.parametrize("seed", range(5))
    def test_sandwich_on_samples(self, seed):
        # A = S T' inherits |Ax| <= lam |x| from the relative bound with
        # lambda2 = 0; both sandwich inequalities must hold on samples
        rng = np.random.default_rng(seed)
        t = _surjective(rng, 4, 6)
        lam = float(rng.uniform(0.1, 0.8))
        s = random_relative_perturbation(t, lam, int(rng.integers(2**62)))
        a = s @ pseudoinverse(t).pinv
        # the lemma's hypothesis in checker form: T = I, S = A, so T+S = I+A
        ok, _ = check_relative_bound(np.eye(4, dtype=complex), a, lam, 0.0)
        assert ok
        x = random_complex(rng, 4, 300)
        x /= np.linalg.norm(x, axis=0)
        img = np.linalg.norm((np.eye(4) + a) @ x, axis=0)
        lo = (1.0 - lam) / (1.0 + 0.0)
        hi = (1.0 + lam) / (1.0 - 0.0)
        assert np.all(img >= lo - 1e-10)
        assert np.all(img <= hi + 1e-10)
