"""Real pairs in real arithmetic.

The dtype of the input decides the working field (``linalg._field``): a
real operator is factored and normed in float64, a complex one in
complex128, and a real matrix that meets a complex one is promoted. The
rule reads the dtype, never the values, so a complex array with zero
imaginary parts stays complex.

The theorems hold over real spaces word for word and every rounding
allowance covers the real case, so a real pair and its complex cast must
give the same verdicts, refusal conditions and ranks, and values within
rounding of each other. The property below checks that on every public
route and on the ``check``, ``update`` and ``bounds`` commands, dropping
(with ``assume``) only the draws whose quantities lie within the rounding
band of a threshold, where two backward-stable evaluations may decide
differently.
"""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pinvperturb
from pinvperturb import (
    OutOfRangeError,
    PinvPerturbError,
    PinvResult,
    Tolerances,
    pseudoinverse,
    read_matrix,
    reverse_order_pinv,
    s_alpha,
    update_relative_surjective,
    update_stewart,
    write_matrix,
)
from pinvperturb import mmio
from pinvperturb.cli import cli_dispatch
from pinvperturb.linalg import _pair, as_matrix
from pinvperturb.reverse_order import _factors

_EPS = float(np.finfo(np.float64).eps)
_TOL = Tolerances()
_THRESHOLD = 1.0 - _TOL.margin_strict  # every strict norm condition reads x < this
_LAMBDA1 = 0.5


class TestTheDtypeDecidesTheField:
    def test_a_real_pair_stays_real(self):
        mt, ms = _pair(np.eye(2), [[0, 1], [0, 0]])
        assert mt.dtype == ms.dtype == np.float64

    def test_a_mixed_pair_is_promoted_to_complex(self):
        t = np.arange(6.0).reshape(2, 3)
        for args in ((t, 1j * t), (1j * t, t)):
            mt, ms = _pair(*args)
            assert mt.dtype == ms.dtype == np.complex128
            np.testing.assert_array_equal(mt + ms, args[0] + args[1])

    def test_mixed_factors_are_promoted_to_complex(self):
        mf, mg = _factors(np.ones((3, 2)), np.eye(2, dtype=np.complex64))
        assert mf.dtype == mg.dtype == np.complex128

    def test_zero_imaginary_parts_stay_complex(self):
        t = np.diag([2.0, 1.0]).astype(np.complex128)
        assert pseudoinverse(t).pinv.dtype == np.complex128

    def test_a_real_pair_returns_float64_results(self):
        t = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        s = s_alpha(t, 0.3)
        assert s.dtype == np.float64
        assert pseudoinverse(t).pinv.dtype == np.float64
        assert update_stewart(t, s).pinv_updated.dtype == np.float64
        assert update_relative_surjective(t, 0.5 * t, 0.6, 0.0).pinv_updated.dtype == np.float64
        assert pinvperturb.neumann_pinv(t, 1.5 * t).pinv_s.dtype == np.float64
        fp = reverse_order_pinv(t.T, t)
        assert {m.dtype for m in (fp.a, fp.pinv_reverse, fp.pinv_closed_form,
                                  fp.pinv_oracle)} == {np.dtype(np.float64)}

    def test_least_squares_keeps_a_complex_right_hand_side(self):
        t = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        x = pinvperturb.least_squares_min_norm(t, [1.0, 2j, 3.0])
        np.testing.assert_allclose(x, [1.0, 1j])


_REAL = "%%MatrixMarket matrix {fmt} real general\n"
_COMPLEX = "%%MatrixMarket matrix {fmt} complex general\n"
# a comment after the size line sends the file to the line scanner
_BODIES = {
    ("array", "real"): "2 1\n{comment}1.5\n-2\n",
    ("array", "complex"): "2 1\n{comment}1.5 0\n-2 0\n",
    ("coordinate", "real"): "2 1 2\n{comment}1 1 1.5\n2 1 -2\n",
    ("coordinate", "complex"): "2 1 2\n{comment}1 1 1.5 0\n2 1 -2 0\n",
}


class TestTheFieldDecidesTheDtypeOnRead:
    @pytest.mark.parametrize("scanner", [False, True], ids=["bulk", "scanner"])
    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("field, dtype", [("real", np.float64),
                                              ("complex", np.complex128)])
    def test_read_dtype(self, tmp_path, monkeypatch, field, dtype, fmt, scanner):
        banner = (_REAL if field == "real" else _COMPLEX).format(fmt=fmt)
        body = _BODIES[fmt, field].format(comment="% scanned\n" if scanner else "")
        path = tmp_path / "m.mtx"
        path.write_text(banner + body)
        calls = []
        scan = mmio._scan
        monkeypatch.setattr(mmio, "_scan", lambda *a: calls.append(1) or scan(*a))
        m = read_matrix(path)
        assert calls == ([1] if scanner else [])
        assert m.dtype == dtype  # a complex file stays complex with zero imaginary parts
        np.testing.assert_array_equal(m, [[1.5], [-2.0]])

    def test_a_real_result_writes_and_reads_back_real(self, tmp_path):
        t = np.array([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]])
        write_matrix(pseudoinverse(t).pinv, tmp_path / "p.mtx")
        assert (tmp_path / "p.mtx").read_text().startswith(_REAL.format(fmt="array"))
        assert read_matrix(tmp_path / "p.mtx").dtype == np.float64


def _subnormal_operator(complex_field):
    g = np.random.default_rng(7).standard_normal((4, 3, 2))
    return 1e-310 * (g[..., 0] + 1j * g[..., 1] if complex_field else g[..., 0])


class TestSubnormalOperatorIsRefusedByName:
    """1 / sigma_r of a subnormal operator overflows; ``pseudoinverse`` refuses
    before it divides (pytest turns any RuntimeWarning into an error)."""

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_library(self, complex_field):
        t = _subnormal_operator(complex_field)
        with pytest.raises(OutOfRangeError, match=r"4 x 3 operator .* sigma_r = \d"):
            pseudoinverse(t)
        # the factorization the refusal reads is the pair's
        with pytest.raises(OutOfRangeError):
            update_stewart(t, 0.5 * t)

    @pytest.mark.parametrize("command", [
        ["pinv", "T"], ["check", "T", "S"], ["update", "T", "S", "--method", "stewart"],
        ["bounds", "T", "S"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    def test_cli_exits_2_with_the_json_error(self, tmp_path, capsys, complex_field, command):
        t = _subnormal_operator(complex_field)
        paths = {"T": str(tmp_path / "t.mtx"), "S": str(tmp_path / "s.mtx")}
        write_matrix(t, paths["T"])
        write_matrix(0.5 * t, paths["S"])
        code = cli_dispatch(["--json", *(paths.get(a, a) for a in command)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["error"]["type"] == "OutOfRangeError"
        assert "sigma_r" in out["error"]["message"]


def _write_complex_field(m, path):
    """``m`` in a ``complex``-field array file, zero imaginary parts included
    (``write_matrix`` would write a real one)."""
    rows, cols = m.shape
    body = "".join(f"{z.real:.17g} {z.imag:.17g}\n" for z in np.asarray(m, complex).T.ravel())
    path.write_text(f"{_COMPLEX.format(fmt='array')}{rows} {cols}\n{body}")


class TestReportsNameTheirArithmetic:
    @pytest.fixture
    def files(self, tmp_path):
        """T and S in a real file and in a complex-field one, and a real F."""
        t = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        s = s_alpha(t, 0.3)
        paths = {name: tmp_path / f"{name}.mtx" for name in ("t", "s", "tc", "sc", "f")}
        write_matrix(t, paths["t"])
        write_matrix(s, paths["s"])
        _write_complex_field(t, paths["tc"])
        _write_complex_field(s, paths["sc"])
        write_matrix(t.T, paths["f"])  # F = T* has full column rank, G = T full row rank
        return {k: str(v) for k, v in paths.items()}

    @pytest.mark.parametrize("command", [
        ["pinv", "t"], ["check", "t", "s"], ["update", "t", "s", "--method", "stewart"],
        ["bounds", "t", "s"], ["rol", "f", "t"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("names, arithmetic", [
        ({}, "real"), ({"t": "tc", "s": "sc"}, "complex"), ({"t": "tc"}, "complex"),
    ], ids=["real", "complex-field-zero-imaginary", "mixed"])
    def test_json_inputs_name_the_arithmetic(self, files, capsys, command, names, arithmetic):
        argv = [files[names.get(a, a)] if a in files else a for a in command]
        code = cli_dispatch(["--json", *argv])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report
        assert report["inputs"]["arithmetic"] == arithmetic

    def test_text_output_does_not_change(self, files, capsys):
        # the field is named under --json only; the text report prints verdicts
        for t, s in (("t", "s"), ("tc", "sc")):
            assert cli_dispatch(["check", files[t], files[s]]) == 0
            out = capsys.readouterr().out
            assert out.startswith("command: check\n") and "arithmetic" not in out


# ---------------------------------------------------------------------------
# the real pair and its complex cast agree
# ---------------------------------------------------------------------------

def _sv(a):
    return np.linalg.svd(a, compute_uv=False) if a.size else np.zeros(0)


def _clear_of_cutoff(a) -> bool:
    """No singular value of ``a`` lies within a factor 16 of its rank cutoff."""
    s = _sv(a)
    if not s.size or s[0] == 0.0:
        return True
    cutoff = _TOL.rank_rel * max(a.shape) * s[0]
    return not np.any((s > cutoff / 16) & (s < 16 * cutoff))


def _rank(a):
    s = _sv(a)
    return 0 if not s.size or s[0] == 0.0 else int(np.count_nonzero(
        s > _TOL.rank_rel * max(a.shape) * s[0]))


def _kappa(a) -> float:
    """The reduced condition number sigma_1 / sigma_r (1 at rank 0)."""
    s, r = _sv(a), _rank(a)
    return float(s[0] / s[r - 1]) if r else 1.0


def _clear(x, threshold, band) -> bool:
    """``x`` lies outside ``[threshold - band, threshold + band]``."""
    return abs(x - threshold) > band


def _gram_is_normal(a) -> bool:
    """Whether the squares of the largest and the smallest nonzero singular
    value of ``a``, the range of its Gram matrices, are normal floats.

    Below that range a Gram matrix the routes form (``mp_representation``'s
    T*T, the reverse-order law's F*F and GG*) keeps no relative accuracy,
    so the two fields need not agree; the reverse-order law there is pinned
    by ``test_reverse_order_law_with_a_subnormal_gram_matrix``.
    """
    s, r = _sv(a), _rank(a)
    return not r or 2.0**-1022 <= float(s[r - 1])**2 and float(s[0])**2 <= 2.0**1023


def _far_from_every_threshold(t, s) -> bool:
    """Whether every decision the routes take on (T, S) lies outside the
    rounding band of its threshold, so that two backward-stable evaluations
    must agree: each rank cutoff (T, S, T+S, the Gram matrices of
    ``mp_representation`` and the product of the reverse-order law), each
    inclusion residual against eq(|S|), each strict norm condition, the
    relative bound's lambda1 against |ST'|, the distance of ``mat_close``
    and the Neumann orders (:func:`_neumann_orders_clear`).

    A norm read through T' moves by about ``unit`` relative between the two
    fields, with ``unit = 2^8 (m + n) kappa(T) kappa(T+S) eps``. The
    post-conditions compare a result with its oracle at eq_rel = 1e-10
    relative; reduced condition numbers below 1e3 keep that rounding (about
    kappa^2 eps (m + n)) two orders below the slack.
    """
    ts = t + s
    if not all(_clear_of_cutoff(m) for m in (t, s, ts, t.T @ t, t @ t.T, t @ s.T)):
        return False
    if not all(_gram_is_normal(m) for m in (t, s, ts, t @ s.T)):
        return False
    if max(_kappa(m) for m in (t, s, ts)) > 1e3:
        return False
    unit = 2.0**8 * sum(t.shape) * _kappa(t) * _kappa(ts) * _EPS
    norm_t, norm_s = float(_sv(t)[0]), float(_sv(s)[0])
    r = _rank(t)
    u, sig, vh = np.linalg.svd(t)
    ur, vr, z = u[:, :r], vh[:r].T, vh[r:].T
    gamma = float(sig[r - 1]) if r else 0.0
    td = (vr / sig[:r]) @ ur.T
    residuals = [float(_sv(e)[0]) if e.size else 0.0
                 for e in (s - ur @ (ur.T @ s), t @ (td @ s) - s, s @ z, s @ td @ t - s)]
    thr = _TOL.eq(norm_s)
    if not all(_clear(e, thr, thr * 15 / 16) for e in residuals):
        return False
    # the relative sampler refuses a null vector of T that S moves by more than this
    thr_relative = _TOL.eq(max(norm_t, norm_s))
    if not _clear(residuals[2], thr_relative, thr_relative * 15 / 16):
        return False
    norms = [float(_sv(td @ s)[0]), float(_sv(s @ td)[0]), norm_s / gamma if r else 0.0]
    if not all(_clear(x, _THRESHOLD, unit) for x in norms):
        return False
    if r and not (_clear(norms[1], _LAMBDA1, unit + 16 * thr_relative / gamma)
                  and _clear(norm_s, gamma * _THRESHOLD, unit * norm_s)):
        return False
    diff, thr_close = float(_sv((t + s) - t)[0]), _TOL.eq(max(norm_t, float(_sv(ts)[0])))
    if not _clear(diff, thr_close, thr_close * 15 / 16):  # mat_close(T, T + S)
        return False
    return _neumann_orders_clear(t, s, td, unit)


def _neumann_orders_clear(t, s, td, unit) -> bool:
    """Whether the error of every partial sum of the Neumann series of
    (T, T + S) stays clear of its certified tail.

    In exact arithmetic the error after k terms is at most the tail
    ``|T'| rho^k / (1 - rho)``, and it equals the tail when the terms align
    (S = cT with c < 0). The route passes an order when the error is at most
    the tail plus ``eq_abs``, so the order is in the rounding band when that
    gap is within the rounding of k partial-sum steps.
    """
    if _rank(t) < t.shape[0]:
        return True  # the route refuses T in both fields: it is not surjective
    x = ((t + s) - t) @ td
    rho, norm_td = float(_sv(x)[0]), float(_sv(td)[0])
    if not rho < _THRESHOLD:
        return True
    target = np.linalg.pinv(t + s, rcond=_TOL.rank_rel * max(t.shape))
    band = unit * norm_td / (1.0 - rho)
    total = term = td
    for k in range(1, 10_001):  # the route's default max_terms
        tail = norm_td * rho**k / (1.0 - rho)
        if tail + _TOL.eq_abs - float(_sv(total - target)[0]) <= k * band:
            return False
        term = -(term @ x)
        if float(_sv(term)[0]) < 1e-12 * norm_td:  # the route's default stopping rule
            return True
        total = total + term
    return True


def _relative_verdict(t, s):
    """The verdict of ``check_relative_bound``. Its worst sampled slack is a
    minimum over singular directions too, which an SVD picks freely inside
    a repeated singular value or a null space, so it is not the pair's own."""
    return pinvperturb.check_relative_bound(t, s, _LAMBDA1, 0.0)[0]


def _routes(t, s):
    return [
        (pinvperturb.pseudoinverse, t),
        (pinvperturb.reduced_min_modulus, t),
        (pinvperturb.mp_representation, t),
        (pinvperturb.check_stewart_hypotheses, t, s),
        (pinvperturb.check_range_inclusion, t, s),
        (pinvperturb.check_null_inclusion, t, s),
        (pinvperturb.estimate_lambda1, t, s),
        (_relative_verdict, t, s),
        (pinvperturb.update_stewart, t, s),
        (pinvperturb.update_relative_surjective, t, s, _LAMBDA1, 0.0),
        (pinvperturb.neumann_pinv, t, t + s),
        (pinvperturb.error_bound_stewart, t, s),
        (pinvperturb.error_bound_lambda2_zero, t, s),
        (pinvperturb.gamma_continuity_bound, t, s),
        *((pinvperturb.norm_bounds_ding_huang, t, s, case)
          for case in ("injective", "surjective", "general")),
        (pinvperturb.mat_close, t, t + s),
        (pinvperturb.check_rol_hypotheses, t, s.T),
        (pinvperturb.reverse_order_pinv, t, s.T),
    ]


def _basis_free(value):
    """A result with each singular basis replaced by its projection, which
    does not depend on the basis an SVD happens to pick."""
    if isinstance(value, PinvResult):
        z = value.null_basis
        return (value.pinv, value.rank, value.sigma, value.gamma, value.proj_range,
                value.proj_rowspace, z @ z.conj().T)
    if dataclasses.is_dataclass(value):
        return [getattr(value, f.name) for f in dataclasses.fields(value)]
    return value


def _leaves(value):
    """The numbers, matrices and other values of a result, in order."""
    value = _basis_free(value)
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _leaves(value[k])]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _leaves(v)]
    return [value]


def _outcome(call, *args):
    # an overflow warning (an error under the test configuration) is an
    # outcome too: both fields must meet it
    try:
        return "value", _leaves(call(*args))
    except (PinvPerturbError, RuntimeWarning) as exc:
        return type(exc).__name__, getattr(exc, "condition", None)


def _assert_same(real, cplx, tolerance, scale, route):
    """Equal kinds, refusals and ranks; each number within ``tolerance``
    times the larger of its two readings and ``scale``."""
    assert real[0] == cplx[0], (route, real, cplx)
    if real[0] != "value":
        assert real == cplx, route
        return
    assert len(real[1]) == len(cplx[1]), route
    for k, (a, b) in enumerate(zip(real[1], cplx[1])):
        where = (route, k, a, b)
        if isinstance(a, np.ndarray):
            assert a.dtype != np.complex128 and a.shape == b.shape, where
            if a.size:
                size = max(np.abs(a).max(), np.abs(b).max(), scale)
                assert np.abs(a - b).max() <= tolerance * size, where
        elif isinstance(a, float):
            assert math.isfinite(a) == math.isfinite(b), where
            if math.isfinite(a):
                assert abs(a - b) <= tolerance * max(abs(a), abs(b), scale), where
        else:
            assert a == b, where  # verdicts, ranks, methods


@st.composite
def _real_pairs(draw):
    """Real (T, S) up to 5 x 5: T with entries in [-4, 4], sometimes a product
    of lower inner dimension (rank-deficient); S a Stewart step s_alpha(T),
    a relative perturbation rho W T, a multiple of T or an unrelated matrix."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.floats(-4.0, 4.0)

    def matrix(r, c):
        return draw(arrays(np.float64, (r, c), elements=entries))

    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        t = matrix(rows, inner) @ matrix(inner, cols) if inner else np.zeros((rows, cols))
    else:
        t = matrix(rows, cols)
    kind = draw(st.sampled_from(["stewart", "relative", "multiple", "unrelated"]))
    if kind == "stewart":
        alpha = draw(st.floats(0.05, 1.95)) * pinvperturb.reduced_min_modulus(t)
        s = s_alpha(t, alpha) if alpha else np.zeros_like(t)  # alpha underflows beside a subnormal gamma
    elif kind == "relative":
        w = matrix(rows, rows)
        norm_w = float(_sv(w)[0])
        s = draw(st.floats(0.0, 1.0)) * ((w / norm_w) @ t if norm_w else 0.0 * t)
    elif kind == "multiple":
        s = draw(st.floats(-2.0, 2.0)) * t
    else:
        s = matrix(rows, cols)
    return t, s


def _tolerance(t, s):
    """The stated allowance: ``2^8 (m + n) kappa^2 eps / (1 - x)``, with kappa
    the product of the reduced condition numbers of T and T+S (and of T S*,
    the product the reverse-order law inverts), and x the largest of
    |T'S|, |ST'| and |S||T'| below 1, whose 1 / (1 - x) the bounds carry."""
    kappa = _kappa(t) * max(_kappa(t + s), _kappa(t @ s.T))
    td = np.linalg.pinv(t, rcond=_TOL.rank_rel * max(t.shape))
    norms = [float(_sv(td @ s)[0]), float(_sv(s @ td)[0]), float(_sv(s)[0]) * float(_sv(td)[0])]
    gap = min([1.0] + [1.0 - x for x in norms if x < 1.0])
    return 2.0**8 * sum(t.shape) * kappa**2 * _EPS / gap


def _scale(t, s):
    """The pair's scale: |T| + |S| + |T'| + |(T+S)'| + |(T S*)'|, which
    bounds every norm, residual and bound the routes return at these shapes."""
    def inv(a):
        r = _rank(a)
        return 1.0 / float(_sv(a)[r - 1]) if r else 0.0
    return float(_sv(t)[0] + _sv(s)[0]) + inv(t) + inv(t + s) + inv(t @ s.T)


@given(pair=_real_pairs())
@settings(max_examples=150, deadline=None)
def test_a_real_pair_and_its_complex_cast_agree_on_every_route(pair):
    t, s = pair
    assume(_far_from_every_threshold(t, s))
    tc, sc = t.astype(np.complex128), s.astype(np.complex128)
    tolerance, scale = _tolerance(t, s), _scale(t, s)
    for real_route, complex_route in zip(_routes(t, s), _routes(tc, sc)):
        real, cplx = _outcome(*real_route), _outcome(*complex_route)
        _assert_same(real, cplx, tolerance, scale, real_route[0].__name__)


_COMMANDS = {
    "check": ["check", "{t}", "{s}"],
    "bounds": ["bounds", "{t}", "{s}"],
    "stewart": ["update", "{t}", "{s}", "--method", "stewart"],
    "relative": ["update", "{t}", "{s}", "--method", "relative", "--lambda1", repr(_LAMBDA1)],
    # Neumann inverts the operator T + S from the series of T
    "neumann": ["update", "{t}", "{ts}", "--method", "neumann"],
}


def _json_outcome(argv):
    """(exit code, outcome as :func:`_outcome` gives it, the arithmetic named)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(["--json", *argv])
    report = json.loads(out.getvalue())
    if "error" in report:
        return code, (report["error"]["type"], report["error"].get("condition")), None
    return code, ("value", _leaves(report["verdicts"])), report["inputs"]["arithmetic"]


@given(pair=_real_pairs())
@settings(max_examples=40, deadline=None)
def test_a_real_pair_and_its_complex_cast_agree_on_the_commands(tmp_path_factory, pair):
    t, s = pair
    assume(_far_from_every_threshold(t, s))
    d = tmp_path_factory.mktemp("real")
    real = {k: str(d / f"{k}.mtx") for k in ("t", "s", "ts")}
    cplx = {k: str(d / f"{k}_complex.mtx") for k in ("t", "s", "ts")}
    for k, m in (("t", t), ("s", s), ("ts", t + s)):
        write_matrix(m, real[k])
        _write_complex_field(m, Path(cplx[k]))
    tolerance, scale = _tolerance(t, s), _scale(t, s)
    for command in _COMMANDS.values():
        code, outcome, arithmetic = _json_outcome([a.format(**real) for a in command])
        code_c, outcome_c, arithmetic_c = _json_outcome([a.format(**cplx) for a in command])
        assert code == code_c
        if arithmetic is not None:
            assert (arithmetic, arithmetic_c) == ("real", "complex")
        _assert_same(outcome, outcome_c, tolerance, scale, command[0])


@pytest.mark.xfail(strict=True, raises=pinvperturb.InvariantViolation, reason=(
    "ROADMAP item 13: GG* = 1.6e-310 is subnormal; the complex solve of the"
    " closed form G*(GG*)^-1 returns NaN where the real one keeps the answer"))
def test_reverse_order_law_with_a_subnormal_gram_matrix():
    f, g = np.eye(1), np.array([[1.25504626e-155]])
    real = reverse_order_pinv(f, g)
    cplx = reverse_order_pinv(f.astype(np.complex128), g.astype(np.complex128))
    np.testing.assert_allclose(cplx.pinv_oracle, real.pinv_oracle, rtol=1e-12)


def test_the_real_path_factors_no_complex_matrix(monkeypatch):
    # every SVD and Gram eigenvalue solve of a real pair runs in float64
    seen = []
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def record(fn):
        def wrapped(a, *args, **kwargs):
            seen.append(np.asarray(a).dtype)
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "svd", record(svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", record(eigvalsh))
    t = as_matrix(np.random.default_rng(2).standard_normal((6, 4)))
    s = s_alpha(t, 0.5 * pinvperturb.reduced_min_modulus(t))
    update_stewart(t, s)
    pinvperturb.check_stewart_hypotheses(t, s)
    assert seen and set(seen) == {np.dtype(np.float64)}
