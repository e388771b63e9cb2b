"""SVD and eigvalsh calls per public call, pinned on fixed seeded pairs.

Each operator is factored once per call and every derived quantity is read
from that factorization, so the number of SVDs a call makes is part of its
contract; every other norm is one ``np.linalg.eigvalsh`` of a Gram matrix
(``spectral_norm``), so each pin is the pair (SVDs, eigvalsh calls). Counts
are exact and hardware-independent, unlike wall time. Every call to
``np.linalg.svd`` is recorded together with whether it formed full
singular-vector matrices (``compute_uv`` and ``full_matrices`` both true);
tall and square inputs never need them. A second check hashes the input of
every SVD and every eigvalsh call: no public route, and no command but
``verify``, takes an SVD of the same matrix twice with the same
``compute_uv``, or the eigenvalues of the same Gram matrix twice. The
``verify`` update trials run their routes on the pair they build, and the
Neumann and reverse-order trials read the factorizations of S, and of F
and FG, that their routes return, so those trials and the typo regression
repeat nothing either; the relative trials repeat only T where S = 0.

A test that only decides ``|A| <= threshold`` is decided from certified
Frobenius and column-norm bounds and measures the norm only when those
cannot decide, so on these well-separated pairs the counts below are the
factorizations (SVDs) and the norms a route returns or computes a value
from (eigvalsh calls).
"""

import hashlib
import json
from collections import Counter

import numpy as np
import pytest

import pinvperturb
from pinvperturb import (
    write_matrix,
    GenSpec,
    check_relative_bound,
    check_stewart_hypotheses,
    error_bound_lambda2_zero,
    error_bound_stewart,
    gamma_continuity_bound,
    haar_unitary,
    neumann_pinv,
    norm_bounds_ding_huang,
    pseudoinverse,
    random_operator,
    random_relative_perturbation,
    reduced_min_modulus,
    reverse_order_pinv,
    s_alpha,
    update_relative_surjective,
    update_stewart,
)
from pinvperturb.cli import cli_dispatch
from pinvperturb import verify
from pinvperturb.verify import run_verification


def svd_calls(call, *args):
    """Run ``call(*args)``; ``(flags, eigvalsh)``: one ``full`` flag per
    ``np.linalg.svd`` call it made, and its number of ``np.linalg.eigvalsh``
    calls."""
    calls, eig = [], []
    real_svd, real_eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counting(a, *svd_args, **kwargs):
        full = kwargs.get("full_matrices", svd_args[0] if svd_args else True)
        uv = kwargs.get("compute_uv", svd_args[1] if len(svd_args) > 1 else True)
        calls.append(bool(full and uv))
        return real_svd(a, *svd_args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", counting)
        mp.setattr(np.linalg, "eigvalsh",
                   lambda *a, **k: eig.append(1) or real_eigvalsh(*a, **k))
        call(*args)
    return calls, len(eig)


def costs(call, *args):
    """``(SVDs, eigvalsh calls)`` of ``call(*args)``."""
    calls, eig = svd_calls(call, *args)
    return len(calls), eig


def repeated_svds(call, *args):
    """Run ``call(*args)``; the SVDs it ran more than once on the same matrix
    with the same ``compute_uv``, and the ``eigvalsh`` calls it ran more than
    once on the same matrix, with their repeat counts."""
    seen = Counter()
    real_svd, real_eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def record(a, kind):
        m = np.ascontiguousarray(a)
        seen[(hashlib.sha256(m.tobytes()).hexdigest(), m.shape, m.dtype.str, kind)] += 1

    def recording(a, *svd_args, **kwargs):
        uv = kwargs.get("compute_uv", svd_args[1] if len(svd_args) > 1 else True)
        record(a, "svd" if uv else "svd values")
        return real_svd(a, *svd_args, **kwargs)

    def recording_eigvalsh(a, *eig_args, **kwargs):
        record(a, "eigvalsh")
        return real_eigvalsh(a, *eig_args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", recording)
        mp.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        call(*args)
    return {key[1:]: n for key, n in seen.items() if n > 1}


def _operator(rows, cols, rank, seed):
    return random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=0.5,
                                   norm_target=2.0, seed=seed))


def _stewart_pair(rows, cols, rank, seed=3):
    t = _operator(rows, cols, rank, seed)
    return t, s_alpha(t, 0.5)


# tall rank-deficient and square rank-deficient Stewart pairs
STEWART_SHAPES = [(160, 120, 90), (140, 140, 100)]


# the SVDs are the factorizations; each norm is one eigvalsh
@pytest.mark.parametrize("shape", STEWART_SHAPES)
@pytest.mark.parametrize("call, count", [
    # T; |T'S|, |ST'|, |S| and the four spectral residuals of the report
    (check_stewart_hypotheses, (1, 7)),
    # T, T+S; |T'S|, |ST'|, |S| and the oracle discrepancy
    (update_stewart, (2, 4)),
    # T, T+S; |T'S| and |S|
    (gamma_continuity_bound, (2, 2)),
    # T; |T'S| and |S|
    (error_bound_stewart, (1, 2)),
])
def test_stewart_routes(shape, call, count):
    calls, eig = svd_calls(call, *_stewart_pair(*shape))
    assert (len(calls), eig) == count
    assert not any(calls)


def test_stewart_update_measures_the_oracle_discrepancy_once():
    # at 1e200 no Frobenius bound decides, since its sums of squares
    # overflow: |T'S|, |ST'|, |S|, the four inclusion residuals, the
    # left/right check (three norms), the recovery identity and the oracle
    # check (two each), whose |result - oracle| is the reported discrepancy
    t, s = _stewart_pair(8, 6, 4)
    assert costs(update_stewart, 1e200 * t, 1e200 * s) == (2, 14)


def test_pseudoinverse_is_one_economy_svd_when_tall():
    assert svd_calls(pseudoinverse, _operator(160, 120, 90, 3)) == ([False], 0)


def test_wide_pseudoinverse_keeps_full_v_for_the_null_basis():
    t = _operator(120, 160, 90, 3)
    assert svd_calls(pseudoinverse, t) == ([True], 0)
    pr = pseudoinverse(t)
    assert pr.null_basis.shape == (160, 70)
    assert pr.v.shape == (160, 120)


@pytest.mark.parametrize("case, shape, count", [
    # T, T+S; |(T+S)' - T'| and the case's norm: |T'S|, |ST'| or |S|
    ("injective", (160, 120, 120), (2, 2)),
    ("surjective", (120, 160, 120), (2, 2)),
    ("general", (140, 140, 100), (2, 2)),
])
def test_ding_huang_cases(case, shape, count):
    calls, eig = svd_calls(norm_bounds_ding_huang, *_stewart_pair(*shape), case)
    assert (len(calls), eig) == count
    # only the factorizations of a wide T and T+S keep a full V
    assert sum(calls) == (2 if shape[0] < shape[1] else 0)


def _relative_pair():
    t = _operator(120, 160, 120, 3)
    return t, random_relative_perturbation(t, 0.5, 5)


def _neumann_target(t):
    return t + 0.5 * (haar_unitary(t.shape[0], np.random.default_rng(1)) @ t)


def test_relative_update():
    # T, T+S; |ST'|, |S|, |T'S| and the oracle discrepancy. The certificate
    # decides the bound, so the sampler's SVDs of S and ST' are not taken;
    # |ST'| < 1 proves I + ST' nonsingular, so the solve takes no SVD
    assert costs(update_relative_surjective, *_relative_pair(), 0.5, 0.0) == (2, 4)


def test_relative_bound_check():
    # T, S, T+S and ST' for the sampler's directions; |S| for its threshold
    assert costs(check_relative_bound, *_relative_pair(), 0.5, 0.0) == (4, 1)


def test_lambda2_zero_error_bound():
    # T; |ST'|, the norm of (I + ST')^-1, and |S|
    assert costs(error_bound_lambda2_zero, *_relative_pair()) == (1, 3)


def test_reverse_order_law():
    f, g = _operator(160, 60, 60, 3), _operator(60, 140, 60, 4)
    # F, G, FG and the two Gram singularity checks; the three discrepancies
    assert costs(reverse_order_pinv, f, g) == (5, 3)


@pytest.mark.parametrize("rho", [0.005, 0.5, 0.76])
def test_neumann_svds_do_not_grow_with_the_order(rho):
    # T and the oracle S; the ratio |(S-T)T'| and the last term's norm at
    # any order; at rho 0.76 the stopping rule also measures one term whose
    # bounds straddle eps_series
    rng = np.random.default_rng(1)
    t = _operator(60, 90, 60, 7)
    s = t + rho * (haar_unitary(60, rng) @ t)
    res = neumann_pinv(t, s)
    assert res.converged
    assert res.terms_used == {0.005: 6, 0.5: 40, 0.76: 101}[rho]
    assert costs(neumann_pinv, t, s) == (2, {0.005: 2, 0.5: 2, 0.76: 3}[rho])


def test_bounds_command_factors_t_and_t_plus_s_once(tmp_path, capsys):
    # rank 150 of 180: lambda2_zero and the injective and surjective
    # Ding-Huang cases refuse on rank; Stewart, general Ding-Huang and gamma
    # continuity apply
    paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
    for m, path in zip(_stewart_pair(180, 180, 150), paths):
        write_matrix(m, path)
    # T, T+S; |(T+S)' - T'|, |T'S| and |S|; |(T+S)'| is read as 1 / gamma(T+S)
    calls, eig = svd_calls(cli_dispatch, ["--json", "bounds", *paths])
    assert (len(calls), eig) == (2, 3)
    assert not any(calls)
    verdicts = capsys.readouterr().out
    assert verdicts.count('"applicable": true') == 3


def test_verification_run():
    # each gamma-continuity sequence factors T once and solves for the
    # S_alpha direction once; the Stewart and relative trials read their
    # null bases and bounds from factorizations they already have, the
    # Stewart trial reads gamma(T) from its factorization, and the update
    # trials run each route on the pair they built; the axiom trial reads
    # |T| from its factorization and the |T'| it measured, the Neumann trial measures the series against
    # the factorization of S its route took, and the reverse-order trial
    # reads the rank and range bases of FG and F from those its route
    # took; inclusions, orthonormality, mat_close and the Neumann stopping
    # rule are decided from bounds, and no solve of I + X with |X| < 1
    # checks singularity; every norm is a Gram eigenvalue, and the
    # relative and Neumann trials take no SVD of their pair's S or ST',
    # which only the sampler reads
    assert costs(run_verification, 20, 0) == (546, 1066)


def test_verify_update_trials_factor_each_operator_once():
    # each trial runs its routes on one pair and reads T+S, the closed form
    # and the bound from it
    assert repeated_svds(verify.suite_stewart, 20, 20, 0) == {}
    assert repeated_svds(verify.suite_typo_regressions, 0) == {}


def test_verify_neumann_and_reverse_order_trials_factor_each_operator_once():
    # each trial reads its oracle, ranks and range bases from the
    # factorizations its route returns
    assert repeated_svds(verify.suite_neumann, 20, 20, 0) == {}
    assert repeated_svds(verify.suite_reverse_order, 20, 20, 0) == {}


def test_relative_trials_repeat_only_where_s_is_zero(monkeypatch):
    # with S = 0, T+S is T: the pair factors it as T and as the oracle, and
    # |T'| and |(T+S)'| are the same Gram eigenvalue
    draw = verify.random_relative_perturbation
    zero_shapes = []

    def recording(t, lam, seed):
        s = draw(t, lam, seed)
        if not s.any():
            zero_shapes.append(t.shape)
        return s

    monkeypatch.setattr(verify, "random_relative_perturbation", recording)
    repeats = repeated_svds(verify.suite_relative, 20, 20, 0)
    [(rows, cols)] = zero_shapes  # one trial of this run draws S = 0
    assert repeats == {((rows, cols), "<c16", "svd"): 2, ((rows, rows), "<c16", "eigvalsh"): 2}


def test_gen_salpha_measures_gamma_once(tmp_path, capsys):
    t = _operator(120, 90, 60, 3)
    t_path, s_path = str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")
    write_matrix(t, t_path)
    t = pinvperturb.read_matrix(t_path)
    # gamma(T) and T for the Stewart verdict; |T'S| and |S|; the solve for
    # the S_alpha direction needs no singularity check
    assert costs(cli_dispatch, ["--json", "gen", "salpha", "-t", t_path, "-o", s_path]) == (2, 2)
    assert json.loads(capsys.readouterr().out)["verdicts"]["alpha"] == reduced_min_modulus(t)
    want = str(tmp_path / "want.mtx")
    write_matrix(s_alpha(t, reduced_min_modulus(t)), want)
    assert open(s_path, "rb").read() == open(want, "rb").read()


@pytest.mark.parametrize("kwargs", [
    {"eps_series": -1.0}, {"eps_series": 0.0}, {"eps_series": float("nan")},
    {"max_terms": 0},
])
def test_neumann_rejects_its_parameters_before_any_svd(kwargs):
    t = _operator(60, 90, 60, 7)

    def call():
        with pytest.raises(ValueError):
            neumann_pinv(t, _neumann_target(t), **kwargs)

    assert svd_calls(call) == ([], 0)


@pytest.mark.parametrize("flag", [
    ["--eps-series", "-1"], ["--eps-series", "0"], ["--eps-series", "nan"],
    ["--max-terms", "0"],
])
def test_cli_neumann_rejects_its_parameters_before_any_svd(tmp_path, capsys, flag):
    t = _operator(30, 45, 30, 7)
    paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
    for m, path in zip((t, _neumann_target(t)), paths):
        write_matrix(m, path)
    codes = []
    calls = svd_calls(lambda: codes.append(cli_dispatch(
        ["update", *paths, "--method", "neumann", *flag])))
    assert codes == [2]
    assert calls == ([], 0)
    assert flag[0][2:].replace("-", "_") in capsys.readouterr().err


# -- no route measures the same matrix twice --

def _relative_pair_small():
    t = _operator(30, 40, 30, 3)
    return t, random_relative_perturbation(t, 0.5, 5)


def test_no_public_route_repeats_an_svd():
    t, s = _stewart_pair(40, 30, 20)
    tr, sr = _relative_pair_small()
    injective = _operator(40, 30, 30, 3)
    f, g = _operator(40, 15, 15, 3), _operator(15, 35, 15, 4)
    routes = {
        "pseudoinverse": (pseudoinverse, t),
        "reduced_min_modulus": (reduced_min_modulus, t),
        "verify_mp_axioms": (pinvperturb.verify_mp_axioms, t, pseudoinverse(t).pinv),
        "mp_representation": (pinvperturb.mp_representation, t),
        "least_squares_min_norm": (pinvperturb.least_squares_min_norm, t, np.ones(40)),
        "check_stewart_hypotheses": (check_stewart_hypotheses, t, s),
        "check_range_inclusion": (pinvperturb.check_range_inclusion, t, s),
        "check_null_inclusion": (pinvperturb.check_null_inclusion, t, s),
        "estimate_lambda1": (pinvperturb.estimate_lambda1, t, s),
        "check_relative_bound": (check_relative_bound, tr, sr, 0.5, 0.0),
        "update_stewart": (update_stewart, t, s),
        "update_relative_surjective": (update_relative_surjective, tr, sr, 0.5, 0.0),
        "neumann_pinv": (neumann_pinv, tr, _neumann_target(tr)),
        "error_bound_stewart": (error_bound_stewart, t, s),
        "error_bound_lambda2_zero": (error_bound_lambda2_zero, tr, sr),
        "gamma_continuity_bound": (gamma_continuity_bound, t, s),
        "ding_huang_injective": (norm_bounds_ding_huang, injective, s_alpha(injective, 0.5),
                                 "injective"),
        "ding_huang_surjective": (norm_bounds_ding_huang, tr, s_alpha(tr, 0.5), "surjective"),
        "ding_huang_general": (norm_bounds_ding_huang, t, s, "general"),
        "reverse_order_pinv": (reverse_order_pinv, f, g),
        "check_rol_hypotheses": (pinvperturb.check_rol_hypotheses, f, g),
        "s_alpha": (s_alpha, t, 0.5),
        "commute_identity_check": (pinvperturb.commute_identity_check, t),
    }
    repeats = {name: repeated_svds(call, *args) for name, (call, *args) in routes.items()}
    assert {name: r for name, r in repeats.items() if r} == {}


def test_no_cli_command_except_verify_repeats_an_svd(tmp_path, capsys):
    t, s = _stewart_pair(40, 30, 20)
    tr, sr = _relative_pair_small()
    mats = {"t": t, "s": s, "tr": tr, "sr": sr, "sn": _neumann_target(tr),
            "f": _operator(40, 15, 15, 3), "g": _operator(15, 35, 15, 4)}
    p = {name: str(tmp_path / f"{name}.mtx") for name in mats}
    for name, m in mats.items():
        write_matrix(m, p[name])
    out = str(tmp_path / "out.mtx")
    commands = {
        "pinv": ["pinv", p["t"], "-o", out],
        "check": ["check", p["t"], p["s"]],
        "update_stewart": ["update", p["t"], p["s"], "--method", "stewart", "-o", out],
        "update_relative": ["update", p["tr"], p["sr"], "--method", "relative",
                            "--lambda1", "0.5", "-o", out],
        "update_neumann": ["update", p["tr"], p["sn"], "--method", "neumann", "-o", out],
        "bounds": ["bounds", p["t"], p["s"]],
        "bounds_surjective": ["bounds", p["tr"], p["sr"]],
        "rol": ["rol", p["f"], p["g"], "-o", out],
        "gen_operator": ["gen", "operator", "--rows", "6", "--cols", "4", "--rank", "3",
                         "--gamma", "0.5", "-o", out],
        "gen_salpha": ["gen", "salpha", "-t", p["t"], "-o", out],
        "gen_relperturb": ["gen", "relperturb", "-t", p["t"], "--lambda1", "0.4", "-o", out],
        "gen_adversarial": ["gen", "adversarial", "--kind", "null_violation",
                            "--out-t", out, "--out-s", str(tmp_path / "out_s.mtx")],
    }
    codes, repeats = {}, {}
    for name, argv in commands.items():
        repeats[name] = repeated_svds(
            lambda: codes.__setitem__(name, cli_dispatch(["--json", *argv])))
    capsys.readouterr()
    assert set(codes.values()) == {0}
    assert {name: r for name, r in repeats.items() if r} == {}
