"""The three workloads: rounds of ops, their fixtures and their oracle checks.

A run executes whole rounds. Every round of a workload has the same op mix
(kinds, shapes, formats, fields and code paths), so per-op counts do not
depend on how many rounds a run completes. Op ``i`` draws its inputs from
(seed, workload, i) alone: no two ops of a run share inputs, so an
in-process cache cannot serve a repeat that a fresh CLI process would never
see, and any op can be rebuilt on its own to replay it.

Scaled fixtures are built at unit scale and then scaled jointly as
(cT, cS); ``s_alpha(cT, c*alpha)`` is not used, because I + T*T is not
scale-homogeneous and its output leaves range inclusion at c = 1e6.
"""

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pinvperturb import cli, generators, hypotheses, mmio, perturb, reverse_order
from pinvperturb.errors import PinvPerturbError

import oracle

SCALES = (1e-12, 1e-6, 1.0, 1e6, 1e12)
ADVERSARIAL = ("range_violation", "null_violation", "norm_violation")
# Neumann ratios; with S = T + rho*U*T for a unitary U the series needs
# 6, 14, 23, 40, 78 and 101 terms, the same for every seed.
RHOS = (0.005, 0.12, 0.3, 0.5, 0.7, 0.76)
GAMMA, NORM = 0.5, 2.0
LAMBDA1 = 0.5
VERIFY_TRIALS = 20

KNOWN_DEFECT = (
    "adversarial pair at scale 1e-12 is certified: the absolute equality floor"
    " eq_abs = 1e-10 in Tolerances.eq swamps residuals of size 3e-13"
)


class Raised:
    """An exception that escaped the timed call."""

    def __init__(self, exc):
        self.exc = exc

    def reason(self):
        typed = "typed" if isinstance(self.exc, PinvPerturbError) else "outside the typed error set"
        return f"raised {type(self.exc).__name__} ({typed}): {self.exc}"


@dataclass
class Op:
    index: int
    kind: str
    call: Callable
    check: Callable
    describe: str
    known_defect: str | None = None

    def run(self):
        try:
            return self.call()
        except Exception as exc:  # judged by verdict() as a failed op
            return Raised(exc)

    def verdict(self, outcome):
        """None if the outcome is what the construction fixes, else the reason."""
        if isinstance(outcome, Raised):
            return outcome.reason()
        try:
            return self.check(outcome)
        except Exception as exc:  # a malformed outcome is a failed op, not a crash
            return f"output could not be checked: {type(exc).__name__}: {exc}"


@dataclass
class CliOutcome:
    code: int
    stdout: str


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.cli_dispatch(argv)
    return CliOutcome(code, buf.getvalue())


def _rng(seed, tag, index):
    return np.random.default_rng((seed, tag, index))


def _seed(rng):
    return int(rng.integers(0, 2**62))


def complex_operator(rng, rows, cols, rank):
    spec = generators.GenSpec(rows=rows, cols=cols, rank=rank, gamma_target=GAMMA,
                              norm_target=NORM, seed=_seed(rng))
    return generators.random_operator(spec)


def real_operator(rng, rows, cols, rank):
    """Real matrix with singular values NORM, interior uniform, GAMMA."""
    u = np.linalg.qr(rng.standard_normal((rows, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rank)))[0]
    inner = np.sort(rng.uniform(GAMMA, NORM, size=max(rank - 2, 0)))[::-1]
    sig = np.concatenate([[NORM], inner, [GAMMA]])[:rank]
    return (u * sig) @ v.T


def stewart_pair(rng, shape, real=False):
    """Stewart-certified (T, S) at unit scale: S = s_alpha(T, gamma)."""
    t = (real_operator if real else complex_operator)(rng, *shape)
    return t, generators.s_alpha(t, GAMMA)


def relative_pair(rng, shape):
    t = complex_operator(rng, *shape)
    return t, generators.random_relative_perturbation(t, LAMBDA1, _seed(rng))


def neumann_pair(rng, shape, rho):
    """Surjective T and the full operator S = T + rho*U*T, ||(S-T)T'|| = rho."""
    t = complex_operator(rng, *shape)
    return t, t + rho * (generators.haar_unitary(shape[0], rng) @ t)


def rol_factors(rng, m, k, n):
    return complex_operator(rng, m, k, k), complex_operator(rng, k, n, k)


def _tiny(shape):
    """Warm-up shape: the same kind of operator at a twentieth of the size."""
    rows, cols, rank = shape
    return max(rows // 20, 3), max(cols // 20, 3), max(rank // 20, 2)


def _need(cond, reason):
    return None if cond else reason


def _first(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# cli_files: one cli_dispatch call on .mtx files per op
# ---------------------------------------------------------------------------

CLI_SHAPES = {
    "pinv": (200, 150, 120),
    "check": (150, 200, 150),
    "update_stewart": (200, 150, 120),
    "update_relative": (150, 200, 150),
    "update_neumann": (150, 200, 150),
    "bounds": (180, 180, 150),
    "rol": (200, 60, 150),
    "gen": (200, 150, 100),
}
# kind -> (input format, real field?, output format)
CLI_FORMATS = {
    "pinv": ("coordinate", True, "array"),
    "check": ("array", False, None),
    "update_stewart": ("array", True, "coordinate"),
    "update_relative": ("coordinate", False, "array"),
    "update_neumann": ("array", False, "array"),
    "bounds": ("coordinate", True, None),
    "rol": ("array", False, "coordinate"),
    "gen": (None, False, "array"),
    "refusal": ("coordinate", False, None),
}
CLI_MIX = ("pinv", "check", "update_stewart", "update_relative", "update_neumann",
           "bounds", "rol", "gen")


def _cli_json(out, code):
    if out.code != code:
        return None, f"exit code {out.code}, expected {code}"
    return json.loads(out.stdout), None


class CliFiles:
    name = "cli_files"
    tag = 1
    round_size = len(CLI_MIX) + 3
    min_rounds = 7

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def describe(self):
        return {
            "closed_loop": "one client, no think time",
            "op": "cli.cli_dispatch(['--json', ...]) on .mtx files",
            "round": list(CLI_MIX) + ["refusal"] * 3,
            "shapes_rows_cols_rank": {k: CLI_SHAPES[k] for k in CLI_MIX},
            "formats_in_realfield_out": CLI_FORMATS,
            "scales": SCALES,
            "neumann_rho": 0.5,
            "relative_lambda1": LAMBDA1,
            "refusals_per_round": "range@1e-12, null@1e-12 and one of"
                                  " range/null/norm at 1e-6..1e12, rotating",
        }

    def _dir(self, label):
        path = os.path.join(self.workdir, label)
        os.makedirs(path, exist_ok=True)
        return path

    def discard(self, label):
        shutil.rmtree(os.path.join(self.workdir, str(label)), ignore_errors=True)

    def build_round(self, r, tiny=False, label=None):
        label = str(r) if label is None else label
        base = r * self.round_size
        ops = [self._big(base + j, kind, SCALES[(r + j) % 5], label, tiny)
               for j, kind in enumerate(CLI_MIX)]
        refusals = [("range_violation", SCALES[0]), ("null_violation", SCALES[0]),
                    (ADVERSARIAL[r % 3], SCALES[1 + r % 4])]
        for j, (kind, scale) in enumerate(refusals, start=len(CLI_MIX)):
            ops.append(self._refusal(base + j, kind, scale, label))
        return ops

    def selfcheck_op(self):
        return self._big(10**9, "update_stewart", 1.0, "selfcheck", False)

    def _write(self, m, path, fmt):
        mmio.write_matrix(m, path, format=fmt)
        return path

    def _big(self, i, kind, c, label, tiny):
        rng = _rng(self.seed, self.tag, i)
        shape = CLI_SHAPES[kind]
        rows, cols, rank = _tiny(shape) if tiny else shape
        fmt_in, real, fmt_out = CLI_FORMATS[kind]
        d = self._dir(label)
        out = os.path.join(d, f"op{i}_out.mtx")
        tail = ["-o", out, "--format", fmt_out] if fmt_out else []

        def files(*mats):
            return [self._write(c * m, os.path.join(d, f"op{i}_{n}.mtx"), fmt_in)
                    for n, m in zip("TS", mats)]

        if kind == "pinv":
            t = (real_operator if real else complex_operator)(rng, rows, cols, rank)
            argv = ["--json", "pinv", *files(t), *tail]

            def check(o, t=c * t):
                v, bad = _cli_json(o, 0)
                return bad or _first(
                    _need(v["verdicts"]["rank"] == rank, f"rank {v['verdicts']['rank']} != {rank}"),
                    oracle.close(oracle.read_mtx(out), oracle.pinv(t)))
        elif kind == "check":
            t, s = stewart_pair(rng, (rows, cols, rank), real)
            argv = ["--json", "check", *files(t, s)]

            def check(o, t=c * t, s=c * s):
                v, bad = _cli_json(o, 0)
                if bad:
                    return bad
                v = v["verdicts"]
                return _first(
                    _need(v["verdict_stewart"] is True, "pair not certified"),
                    oracle.close_scalar(v["norm_TdS"], oracle.norm2(oracle.pinv(t) @ s)),
                    oracle.close_scalar(v["gamma_T"], float(oracle.sigma(t)[rank - 1])))
        elif kind in ("update_stewart", "update_relative", "update_neumann", "bounds"):
            if kind == "update_relative":
                t, s = relative_pair(rng, (rows, cols, rank))
                method = ["--method", "relative", "--lambda1", repr(LAMBDA1)]
            elif kind == "update_neumann":
                t, s = neumann_pair(rng, (rows, cols, rank), 0.5)
                method = ["--method", "neumann"]
            else:
                t, s = stewart_pair(rng, (rows, cols, rank), real)
                method = ["--method", "stewart"]
            if kind == "bounds":
                argv = ["--json", "bounds", *files(t, s)]
            else:
                argv = ["--json", "update", *files(t, s), *method, *tail]
            # neumann inverts S itself; the other routes update T by S
            target = c * s if kind == "update_neumann" else c * (t + s)

            def check(o, t=c * t, target=target):
                v, bad = _cli_json(o, 0)
                if bad:
                    return bad
                want = oracle.pinv(target)
                if kind != "bounds":
                    return oracle.close(oracle.read_mtx(out), want)
                v = v["verdicts"]
                diff = oracle.norm2(want - oracle.pinv(t))
                return _first(
                    oracle.close_scalar(v["measured_pinv_diff"], diff),
                    _need(v["stewart"]["applicable"], "stewart bound refused"),
                    _need(v["stewart"].get("bound", 0.0) >= diff * (1 - 1e-8),
                          "stewart bound below the measured change"))
        elif kind == "rol":
            f, g = rol_factors(rng, rows, cols, rank)
            d_f = self._write(c * f, os.path.join(d, f"op{i}_F.mtx"), fmt_in)
            d_g = self._write(g, os.path.join(d, f"op{i}_G.mtx"), fmt_in)
            argv = ["--json", "rol", d_f, d_g, *tail]

            def check(o, a=c * f @ g):
                v, bad = _cli_json(o, 0)
                return bad or _first(
                    _need(v["verdicts"]["three_way_agreement"] is True, "routes disagree"),
                    oracle.close(oracle.read_mtx(out), oracle.pinv(a)))
        else:  # gen operator: writes a file, reads none
            argv = ["--json", "--seed", str(_seed(rng)), "gen", "operator",
                    "--rows", str(rows), "--cols", str(cols), "--rank", str(rank),
                    "--gamma", repr(GAMMA * c), "--norm", repr(NORM * c), *tail]

            def check(o):
                _, bad = _cli_json(o, 0)
                if bad:
                    return bad
                m = oracle.read_mtx(out)
                sig = oracle.sigma(m)
                return _first(
                    _need(m.shape == (rows, cols), f"shape {m.shape}"),
                    oracle.close_scalar(sig[0], NORM * c),
                    oracle.close_scalar(sig[rank - 1], GAMMA * c),
                    _need(rank == len(sig) or sig[rank] <= 1e-10 * NORM * c, "rank too high"))

        return Op(i, kind, lambda: run_cli(argv), check, " ".join(argv))

    def _refusal(self, i, adv, c, label):
        t, s = generators.adversarial_pair(adv, _seed(_rng(self.seed, self.tag, i)))
        d = self._dir(label)
        paths = []
        for n, m in zip("TS", (t, s)):
            paths.append(self._write(c * m, os.path.join(d, f"op{i}_{n}.mtx"),
                                     CLI_FORMATS["refusal"][0]))
        argv = ["--json", "update", *paths, "--method", "stewart"]

        def check(o):
            v, bad = _cli_json(o, 1)
            return bad or _need(v["error"]["type"] == "HypothesisRefusal",
                                f"error type {v['error']['type']}")

        defect = KNOWN_DEFECT if c == 1e-12 and adv != "norm_violation" else None
        return Op(i, "refusal", lambda: run_cli(argv), check,
                  f"{adv} x {c:g}: " + " ".join(argv), known_defect=defect)

    def warmup(self, rep):
        label = f"warmup{rep}"
        for op in self.build_round(10**6 + rep, tiny=True, label=label):
            op.run()
        self.discard(label)


# ---------------------------------------------------------------------------
# lib_updates: one in-memory library call per op
# ---------------------------------------------------------------------------

# (kind, shape rows/cols/rank, extra) per op of a round
LIB_MIX = (
    ("check", (160, 120, 90), None),
    ("check", (120, 160, 120), None),
    ("update_stewart", (160, 120, 120), None),
    ("update_stewart", (140, 140, 100), None),
    ("update_stewart", (120, 160, 80), None),
    ("update_relative", (120, 160, 120), None),
    ("update_relative", (90, 150, 90), None),
    *(("neumann", (60, 90, 60), rho) for rho in RHOS),
    ("bounds", (160, 120, 120), "injective"),
    ("bounds", (120, 160, 120), "surjective"),
    ("bounds", (140, 140, 100), "general"),
    ("rol", (160, 60, 140), None),
)


class LibUpdates:
    name = "lib_updates"
    tag = 2
    round_size = len(LIB_MIX)
    min_rounds = 7

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def describe(self):
        return {
            "closed_loop": "one client, no think time",
            "op": "one in-memory library call, no files, no report",
            "round": [f"{k} {s}" + (f" {x}" if x is not None else "") for k, s, x in LIB_MIX],
            "scale": 1.0,
            "neumann_rho": RHOS,
            "relative_lambda1": LAMBDA1,
        }

    def discard(self, label):
        pass

    def build_round(self, r, tiny=False):
        base = r * self.round_size
        return [self._op(base + j, kind, _tiny(shape) if tiny else shape, extra)
                for j, (kind, shape, extra) in enumerate(LIB_MIX)]

    def selfcheck_op(self):
        return self._op(10**9, "update_stewart", (160, 120, 90), None)

    def _op(self, i, kind, shape, extra):
        rng = _rng(self.seed, self.tag, i)
        label = f"{kind}{shape}" + (f" {extra}" if extra is not None else "")
        if kind == "check":
            t, s = stewart_pair(rng, shape)

            def call():
                return hypotheses.check_stewart_hypotheses(t, s)

            def check(rep):
                return _first(_need(rep.verdict_stewart, "pair not certified"),
                              oracle.close_scalar(rep.norm_TdS,
                                                  oracle.norm2(oracle.pinv(t) @ s)))
        elif kind in ("update_stewart", "update_relative"):
            if kind == "update_stewart":
                t, s = stewart_pair(rng, shape)

                def call():
                    return perturb.update_stewart(t, s)
            else:
                t, s = relative_pair(rng, shape)

                def call():
                    return perturb.update_relative_surjective(t, s, LAMBDA1, 0.0)

            def check(res):
                return oracle.close(res.pinv_updated, oracle.pinv(t + s))
        elif kind == "neumann":
            t, s = neumann_pair(rng, shape, extra)

            def call():
                return perturb.neumann_pinv(t, s)

            def check(res):
                return _first(_need(res.converged, "series did not converge"),
                              oracle.close(res.pinv_s, oracle.pinv(s)))
        elif kind == "bounds":
            t, s = stewart_pair(rng, shape)

            def call():
                return (perturb.error_bound_stewart(t, s),
                        perturb.gamma_continuity_bound(t, s),
                        perturb.norm_bounds_ding_huang(t, s, extra))

            def check(res):
                bound, (achieved, gbound), dh = res
                p_sum, p_t = oracle.pinv(t + s), oracle.pinv(t)
                diff = oracle.norm2(p_sum - p_t)
                rank = shape[2]
                moved = abs(oracle.sigma(t + s)[rank - 1] - oracle.sigma(t)[rank - 1])
                return _first(
                    _need(bound >= diff * (1 - 1e-8), "stewart bound below the measured change"),
                    _need(abs(achieved - moved) <= 1e-8 * GAMMA, "gamma change disagrees"),
                    _need(achieved <= gbound * (1 + 1e-8), "gamma bound exceeded"),
                    oracle.close_scalar(dh.measured_pinv_norm, oracle.norm2(p_sum)),
                    _need(dh.measured_pinv_norm <= dh.pinv_norm_bound * (1 + 1e-8),
                          "Ding-Huang norm bound exceeded"))
        else:
            f, g = rol_factors(rng, *shape)

            def call():
                return reverse_order.reverse_order_pinv(f, g)

            def check(res):
                return oracle.close(res.pinv_reverse, oracle.pinv(f @ g))
        return Op(i, kind, call, check, label)

    def warmup(self, rep):
        for op in self.build_round(10**6 + rep, tiny=True):
            op.run()


# ---------------------------------------------------------------------------
# verify_suite: one `verify` invocation per op
# ---------------------------------------------------------------------------


class VerifySuite:
    name = "verify_suite"
    tag = 3
    round_size = 4
    min_rounds = 9

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def describe(self):
        return {
            "closed_loop": "one client, no think time",
            "op": f"cli.cli_dispatch(['--json', 'verify', '--trials', '{VERIFY_TRIALS}',"
                  " '--seed', s]) at the default --max-dim and --jobs",
            "verify_trials": VERIFY_TRIALS,
            "max_dim": 20,
        }

    def discard(self, label):
        pass

    def build_round(self, r, tiny=False):
        base = r * self.round_size
        return [self._op(base + j, 2 if tiny else VERIFY_TRIALS, 4 if tiny else None)
                for j in range(self.round_size)]

    def selfcheck_op(self):
        return self._op(10**9, 4, None)

    def _op(self, i, trials, max_dim):
        seed = int(_rng(self.seed, self.tag, i).integers(0, 2**31))
        argv = ["--json", "verify", "--trials", str(trials), "--seed", str(seed)]
        if max_dim is not None:
            argv += ["--max-dim", str(max_dim)]

        def check(o):
            v, bad = _cli_json(o, 0)
            return bad or _need(v["verdicts"]["all_passed"] is True, "all_passed is false")
        return Op(i, "verify", lambda: run_cli(argv), check, " ".join(argv))

    def warmup(self, rep):
        for op in self.build_round(10**6 + rep, tiny=True)[:1]:
            op.run()


WORKLOADS = {w.name: w for w in (CliFiles, LibUpdates, VerifySuite)}
