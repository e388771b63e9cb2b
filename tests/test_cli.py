import json

import numpy as np
import pytest

from pinvperturb import (
    GenSpec,
    HypothesisRefusal,
    error_bound_lambda2_zero,
    error_bound_stewart,
    gamma_continuity_bound,
    norm_bounds_ding_huang,
    random_operator,
    read_matrix,
    s_alpha,
    write_matrix,
)
from pinvperturb.cli import cli_dispatch
from pinvperturb.report import Report, parse_report, serialize_report
from conftest import rank_jump_pair


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixtures(tmp_path, capsys):
    """Generated corpus: a base operator, a certified perturbation, and the
    three adversarial pairs."""
    paths = {"t": str(tmp_path / "t.mtx"), "s": str(tmp_path / "s.mtx")}
    code, _, _ = run_cli(
        capsys, "--seed", "5", "gen", "operator", "--rows", "4", "--cols", "3",
        "--rank", "2", "--gamma", "0.5", "--norm", "1.5", "-o", paths["t"],
    )
    assert code == 0
    code, _, _ = run_cli(capsys, "gen", "salpha", "-t", paths["t"], "-o", paths["s"])
    assert code == 0
    for kind in ("range_violation", "null_violation", "norm_violation"):
        tp = str(tmp_path / f"{kind}_t.mtx")
        sp = str(tmp_path / f"{kind}_s.mtx")
        code, _, _ = run_cli(
            capsys, "--seed", "5", "gen", "adversarial", "--kind", kind,
            "--out-t", tp, "--out-s", sp,
        )
        assert code == 0
        paths[kind] = (tp, sp)
    return paths


class TestReportSerialization:
    def test_round_trip_by_value(self):
        rep = Report(
            command="pinv",
            inputs={"t": "x.mtx", "output": None},
            verdicts={"gamma": 0.1, "rank": 3, "ok": True,
                      "sigma": [1.5, 0.1], "nested": {"a": -2.25e-300}},
            timings={"total_ms": 1.25},
            tolerances_used={"eq_abs": 1e-10},
        )
        back = parse_report(serialize_report(rep))
        assert back == rep

    def test_shortest_round_trip_floats(self):
        values = [0.1, 1.0 / 3.0, 2.0**-1074, 1.7976931348623157e308, -2.25e-300]
        text = serialize_report(Report(command="x", verdicts={"v": values}))
        assert '"v": [\n      0.1,' in text
        assert parse_report(text).verdicts["v"] == values

    def test_deterministic_text(self):
        rep = Report(command="x", verdicts={"a": 1.0, "b": 2})
        assert serialize_report(rep) == serialize_report(rep)

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            serialize_report(Report(command="x", verdicts={"m": np.eye(2)}))


class TestExitCodeContract:
    def test_pinv_positive_fixture(self, fixtures, capsys, tmp_path):
        out_path = str(tmp_path / "pinv.mtx")
        code, out, _ = run_cli(capsys, "pinv", fixtures["t"], "-o", out_path)
        assert code == 0
        assert "rank: 2" in out
        assert read_matrix(out_path).shape == (3, 4)

    def test_timings_carry_read_and_write(self, fixtures, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "--json", "pinv", fixtures["t"], "-o", str(tmp_path / "p.mtx"))
        assert code == 0
        timings = json.loads(out)["timings"]
        assert 0.0 <= timings["read_ms"] <= timings["total_ms"]
        assert 0.0 <= timings["write_ms"] <= timings["total_ms"]
        # each command reports only its own I/O: check writes nothing
        code, out, _ = run_cli(capsys, "--json", "check", fixtures["t"], fixtures["s"])
        assert code == 0
        assert json.loads(out)["timings"]["write_ms"] == 0.0

    def test_check_positive_fixture(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, "--json", "check", fixtures["t"], fixtures["s"])
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["verdict_stewart"] is True

    def test_check_negative_fixture(self, fixtures, capsys):
        tp, sp = fixtures["norm_violation"]
        code, out, _ = run_cli(capsys, "--json", "check", tp, sp)
        assert code == 1
        rep = json.loads(out)
        assert rep["verdicts"]["verdict_stewart"] is False

    def test_update_stewart_positive(self, fixtures, capsys, tmp_path):
        out_path = str(tmp_path / "upd.mtx")
        code, out, _ = run_cli(
            capsys, "--json", "update", fixtures["t"], fixtures["s"],
            "--method", "stewart", "-o", out_path,
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["verdicts"]["oracle_discrepancy"] <= 1e-8

    def test_update_contradicted_by_its_oracle_exits_1(self, tmp_path, capsys):
        paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
        for m, path in zip(rank_jump_pair(), paths):
            write_matrix(m, path)
        code, out, _ = run_cli(capsys, "--json", "update", *paths, "--method", "stewart")
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "InvariantViolation"
        assert "Stewart update" in err["message"]

    @pytest.mark.parametrize("kind,needle", [
        ("norm_violation", "‖T†S‖"),
        ("range_violation", "range inclusion"),
        ("null_violation", "null-space inclusion"),
    ])
    def test_update_adversarial_refusals(self, fixtures, capsys, kind, needle):
        tp, sp = fixtures[kind]
        code, out, _ = run_cli(capsys, "--json", "update", tp, sp, "--method", "stewart")
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "HypothesisRefusal"
        assert needle in err["message"]

    def test_refusal_condition_in_json_error(self, fixtures, capsys):
        tp, sp = fixtures["range_violation"]
        code, out, _ = run_cli(capsys, "--json", "update", tp, sp, "--method", "stewart")
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "HypothesisRefusal"
        assert err["condition"] == "range_inclusion"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix array integer general\n1 1\n1\n")
        code, out, _ = run_cli(capsys, "--json", "pinv", str(bad))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "MatrixMarketError"

    def test_non_finite_value_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "nan.mtx"
        bad.write_text("%%MatrixMarket matrix array real general\n1 2\n1.5\nnan\n")
        code, out, _ = run_cli(capsys, "--json", "pinv", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "MatrixMarketError"
        assert err["message"] == f"{bad}:4: non-finite value 'nan'"

    def test_unallocatable_size_exits_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "huge.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n99999999999999999999 2 0\n")
        code, out, _ = run_cli(capsys, "--json", "pinv", str(bad))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "MatrixMarketError"
        assert err["message"].startswith(f"{bad}:2: cannot allocate")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pinv", "does-not-exist.mtx")
        assert code == 2

    def test_usage_error_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2
        assert run_cli(capsys, "update", "a.mtx", "b.mtx")[0] == 2  # missing --method

    def test_missing_lambda1_is_usage_error(self, fixtures, capsys):
        code, _, _ = run_cli(
            capsys, "update", fixtures["t"], fixtures["s"], "--method", "relative"
        )
        assert code == 2

    def test_help_exits_0(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("kernel, argv", [
        ("svd", ["pinv", "t"]),
        ("eigvalsh", ["check", "t", "s"]),
        ("eigvalsh", ["bounds", "t", "s"]),
    ])
    def test_decomposition_failure_exits_2(self, fixtures, capsys, monkeypatch, kernel, argv):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, kernel, fail)
        code, out, _ = run_cli(capsys, "--json", argv[0], *(fixtures[a] for a in argv[1:]))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "DecompositionError"
        assert "failed to converge for shape" in err["message"]


class TestBoundsAndRol:
    def test_bounds_on_certified_pair(self, fixtures, capsys):
        code, out, _ = run_cli(capsys, "--json", "bounds", fixtures["t"], fixtures["s"])
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["stewart"]["applicable"] is True
        assert verdicts["stewart"]["dominates"] is True
        assert verdicts["gamma_continuity"]["applicable"] is True
        # base operator is 4x3 of rank 2: neither injective nor surjective
        assert verdicts["ding_huang_injective"]["applicable"] is False
        assert verdicts["ding_huang_surjective"]["applicable"] is False
        assert verdicts["ding_huang_general"]["applicable"] is True

    def test_rol_agreement_and_refusal(self, tmp_path, capsys):
        f_path, g_path = str(tmp_path / "f.mtx"), str(tmp_path / "g.mtx")
        write_matrix(np.array([[1.0], [1.0]]), f_path)
        write_matrix(np.array([[1.0, 0.0]]), g_path)
        code, out, _ = run_cli(capsys, "--json", "rol", f_path, g_path)
        assert code == 0
        assert json.loads(out)["verdicts"]["three_way_agreement"] is True

        write_matrix(np.array([[1.0, 1.0]]), f_path)  # no longer full column rank
        write_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]), g_path)
        code, out, _ = run_cli(capsys, "--json", "rol", f_path, g_path)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "HypothesisRefusal"

    def test_update_neumann(self, tmp_path, capsys):
        t_path, s_path = str(tmp_path / "tn.mtx"), str(tmp_path / "sn.mtx")
        write_matrix(np.array([[1.0, 0.0]]), t_path)
        write_matrix(np.array([[1.2, 0.0]]), s_path)
        code, out, _ = run_cli(capsys, "--json", "update", t_path, s_path,
                               "--method", "neumann")
        assert code == 0
        verdicts = json.loads(out)["verdicts"]
        assert verdicts["converged"] is True
        assert verdicts["ratio"] == pytest.approx(0.2)

    def test_update_relative(self, tmp_path, capsys):
        t_path, s_path = str(tmp_path / "tr.mtx"), str(tmp_path / "sr.mtx")
        write_matrix(np.array([[1.0, 0.0]]), t_path)
        write_matrix(np.array([[0.5, 0.0]]), s_path)
        code, out, _ = run_cli(capsys, "--json", "update", t_path, s_path,
                               "--method", "relative", "--lambda1", "0.5")
        assert code == 0
        assert json.loads(out)["verdicts"]["method"] == "relative_surjective"

    def test_bounds_reports_the_gamma_verdict_of_the_helper(self, tmp_path, capsys):
        # kappa(T) = 1 at |T| = 1e8: gamma_continuity_bound judges the change
        # at eq(max(1, gamma(T))) and returns, so bounds reports it dominated
        t = random_operator(GenSpec(rows=6, cols=5, rank=5, gamma_target=1e8,
                                    norm_target=1e8, seed=0))
        s = 1e-9 * t
        achieved, bound = gamma_continuity_bound(t, s)
        paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
        write_matrix(t, paths[0])
        write_matrix(s, paths[1])
        code, out, _ = run_cli(capsys, "--json", "bounds", *paths)
        entry = json.loads(out)["verdicts"]["gamma_continuity"]
        assert (entry["measured"], entry["bound"]) == (achieved, bound)
        assert entry["dominates"] is True
        assert code == 0


_DH_CASES = ("injective", "surjective", "general")


def _public_bounds(t, s):
    """Each public bound function's return on (T, S), or its refusal text."""
    def outcome(call, *args):
        try:
            return call(t, s, *args)
        except HypothesisRefusal as exc:
            return str(exc)

    out = {
        "stewart": outcome(error_bound_stewart),
        "lambda2_zero": outcome(error_bound_lambda2_zero),
        "gamma_continuity": outcome(gamma_continuity_bound),
    }
    for case in _DH_CASES:
        db = outcome(norm_bounds_ding_huang, case)
        out[f"ding_huang_{case}"] = db if isinstance(db, str) else (
            db.pinv_norm_bound, db.pinv_diff_bound, db.measured_pinv_norm,
            db.measured_pinv_diff)
    return out


def _reported_bounds(verdicts):
    """The same quantities as the ``bounds --json`` verdicts report them."""
    out = {}
    for name, entry in verdicts.items():
        if not isinstance(entry, dict):
            continue
        if not entry["applicable"]:
            out[name] = entry["reason"]
        elif name == "gamma_continuity":
            out[name] = (entry["measured"], entry["bound"])
        elif name.startswith("ding_huang_"):
            out[name] = (entry["pinv_norm_bound"], entry["pinv_diff_bound"],
                         entry["measured_pinv_norm"], entry["measured_pinv_diff"])
        else:
            out[name] = entry["bound"]
    return out


class TestBoundsMatchPublicFunctions:
    """``bounds`` factors T and T+S once and hands them to every bound; each
    verdict must still be exactly what the public function returns."""

    APPLICABLE = pytest.mark.parametrize("shape, applicable", [
        ((4, 3, 2), {"stewart", "ding_huang_general", "gamma_continuity"}),
        ((5, 8, 5), {"stewart", "lambda2_zero", "ding_huang_surjective",
                     "ding_huang_general", "gamma_continuity"}),
        ((8, 5, 5), {"stewart", "ding_huang_injective", "ding_huang_general",
                     "gamma_continuity"}),
    ], ids=["rank-deficient", "surjective", "injective"])

    @staticmethod
    def _bounds(tmp_path, capsys, shape):
        rows, cols, rank = shape
        t = random_operator(GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=0.5,
                                    norm_target=1.5, seed=9))
        paths = [str(tmp_path / "t.mtx"), str(tmp_path / "s.mtx")]
        write_matrix(t, paths[0])
        write_matrix(s_alpha(t, 0.6), paths[1])
        code, out, _ = run_cli(capsys, "--json", "bounds", *paths)
        assert code == 0
        return paths, json.loads(out)["verdicts"]

    @APPLICABLE
    def test_applicable_pair(self, tmp_path, capsys, shape, applicable):
        paths, verdicts = self._bounds(tmp_path, capsys, shape)
        reported = _reported_bounds(verdicts)
        assert {k for k, v in reported.items() if not isinstance(v, str)} == applicable
        assert reported == _public_bounds(*map(read_matrix, paths))

    @APPLICABLE
    def test_pinv_norm_is_the_ding_huang_reading(self, tmp_path, capsys, shape, applicable):
        # |(T+S)'| is read once, as 1 / gamma(T+S), for the report and every case
        _, verdicts = self._bounds(tmp_path, capsys, shape)
        norm = verdicts["measured_pinv_norm"]
        cases = [name for name in applicable if name.startswith("ding_huang_")]
        assert cases
        for name in cases:
            assert verdicts[name]["measured_pinv_norm"].hex() == norm.hex()

    @pytest.mark.parametrize("kind", ["range_violation", "null_violation", "norm_violation"])
    def test_refused_pair(self, fixtures, capsys, kind):
        code, out, _ = run_cli(capsys, "--json", "bounds", *fixtures[kind])
        assert code == 0
        reported = _reported_bounds(json.loads(out)["verdicts"])
        assert reported["gamma_continuity"].startswith("gamma continuity bound refused")
        assert reported == _public_bounds(*map(read_matrix, fixtures[kind]))


class TestGen:
    def test_relperturb(self, fixtures, tmp_path, capsys):
        out = str(tmp_path / "rp.mtx")
        code, text, _ = run_cli(
            capsys, "--json", "gen", "relperturb", "-t", fixtures["t"],
            "--lambda1", "0.4", "-o", out,
        )
        assert code == 0
        assert read_matrix(out).shape == (4, 3)

    def test_infeasible_spec_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "gen", "operator", "--rows", "2", "--cols", "2", "--rank", "3",
            "-o", str(tmp_path / "x.mtx"),
        )
        assert code == 2


class TestToleranceConfiguration:
    def test_flags_take_effect(self, fixtures, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "--tol-abs", "1e-6", "pinv", fixtures["t"]
        )
        assert code == 0
        assert json.loads(out)["tolerances_used"]["eq_abs"] == 1e-6

    def test_env_override(self, fixtures, capsys, monkeypatch):
        monkeypatch.setenv("PINVPERTURB_TOL_REL", "1e-7")
        code, out, _ = run_cli(capsys, "--json", "pinv", fixtures["t"])
        assert code == 0
        assert json.loads(out)["tolerances_used"]["eq_rel"] == 1e-7

    def test_flag_beats_env(self, fixtures, capsys, monkeypatch):
        monkeypatch.setenv("PINVPERTURB_MARGIN", "0.5")
        code, out, _ = run_cli(
            capsys, "--json", "--margin", "1e-9", "pinv", fixtures["t"]
        )
        assert json.loads(out)["tolerances_used"]["margin_strict"] == 1e-9

    @pytest.mark.parametrize("command", [["check"], ["update", "--method", "stewart"]])
    @pytest.mark.parametrize("source", ["--tol-abs", "--tol-rel",
                                        "PINVPERTURB_TOL_ABS", "PINVPERTURB_TOL_REL"])
    def test_non_finite_tolerance_is_a_usage_error(self, fixtures, capsys, monkeypatch,
                                                   source, command):
        # an infinite slack would certify the range-violating pair that the
        # default tolerances refuse
        t, s = fixtures["range_violation"]
        if source.startswith("--"):
            flags = [source, "inf"]
        else:
            flags = []
            monkeypatch.setenv(source, "inf")
        code, out, _ = run_cli(capsys, "--json", *flags, command[0], t, s, *command[1:])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and "finite" in error["message"]


class TestVerifyCommand:
    def test_deterministic_per_seed(self, capsys):
        argv = ["--json", "verify", "--trials", "8", "--seed", "42", "--max-dim", "8"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        rep1, rep2 = json.loads(out1), json.loads(out2)
        rep1.pop("timings")
        rep2.pop("timings")
        assert rep1 == rep2

    def test_jobs_is_a_usage_error(self, capsys):
        # the no-op --jobs option was removed in 0.2.0
        code, _, _ = run_cli(capsys, "verify", "--trials", "1", "--jobs", "3")
        assert code == 2

    def test_report_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "--json", "verify", "--trials", "5",
                            "--seed", "1", "--max-dim", "6")
        rep = parse_report(out)
        assert serialize_report(rep) == out.rstrip("\n")

    @pytest.mark.parametrize("flag, value, name", [
        ("--trials", "0", "trials"), ("--trials", "-3", "trials"), ("--max-dim", "1", "max_dim"),
    ])
    def test_invalid_size_is_refused_by_name(self, capsys, flag, value, name):
        code, out, _ = run_cli(capsys, "--json", "verify", flag, value)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith(name)
