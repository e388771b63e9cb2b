"""Command-line interface.

Subcommands mirror the library surface: ``pinv``, ``check``, ``update``,
``bounds``, ``rol``, ``gen``, and ``verify``. Every run prints a structured
report (JSON under ``--json``) and exits 0 on success, 1 on a hypothesis
refusal or verification failure, 2 on usage or I/O errors, on a
decomposition that does not converge (``DecompositionError``) and on a
result outside the floating-point range (``OutOfRangeError``). Under
``--json``, the ``inputs`` of ``pinv``, ``check``, ``update``, ``bounds`` and
``rol`` name the ``arithmetic``, ``real`` or ``complex``, that the dtypes of
the matrices read decided (see ``linalg.as_matrix``). Each field
of ``Tolerances`` has its flag in ``_TOLERANCE_FLAGS``; a flag, else the
environment variable ``PINVPERTURB_`` plus the flag's name in upper case
(PINVPERTURB_TOL_ABS, ...), overrides the default that ``--help`` prints.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from . import mmio
from .errors import (
    DecompositionError,
    HypothesisRefusal,
    InvariantViolation,
    MatrixMarketError,
    SingularMatrixError,
)
from .linalg import Tolerances, _norm_bounds, _within, singular_values, spectral_norm
from .pinv import _axioms, _gamma, _norm_pinv, pseudoinverse, reduced_min_modulus
from .report import Report, serialize_report

# Each command imports the modules beyond those above inside its function,
# so a process loads only what its command runs.

_ENV_PREFIX = "PINVPERTURB_"
# (Tolerances field, flag, help) for each tolerance, in the order of --help
_TOLERANCE_FLAGS = (
    ("eq_abs", "--tol-abs", "absolute equality tolerance"),
    ("eq_rel", "--tol-rel", "relative equality tolerance"),
    ("rank_rel", "--rank-rel", "relative rank cutoff factor"),
    ("margin_strict", "--margin", "strictness margin for norm conditions"),
)


def _arithmetic(*mats) -> str:
    """The field a command computes in: complex when any matrix read is
    complex, as ``linalg._pair`` promotes a mixed pair, else real."""
    return "complex" if any(m.dtype.kind == "c" for m in mats) else "real"


class _Files:
    """One command's Matrix Market reads and writes, with their summed time."""

    def __init__(self):
        self.timings = {"read_ms": 0.0, "write_ms": 0.0}

    def read(self, path):
        start = time.perf_counter()
        m = mmio.read_matrix(path)
        self.timings["read_ms"] += (time.perf_counter() - start) * 1e3
        return m

    def write(self, m, path, format):
        start = time.perf_counter()
        mmio.write_matrix(m, path, format=format)
        self.timings["write_ms"] += (time.perf_counter() - start) * 1e3


def _resolve_tolerances(args) -> Tolerances:
    """Each tolerance from its flag, else its environment variable, else the default."""
    chosen = {}
    for field, flag, _ in _TOLERANCE_FLAGS:
        name = flag.lstrip("-").replace("-", "_")
        value, raw = getattr(args, name), os.environ.get(_ENV_PREFIX + name.upper())
        if value is not None or raw is not None:
            chosen[field] = float(raw) if value is None else value
    return Tolerances(**chosen)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinvperturb",
        description="Certified pseudoinverse perturbation toolkit on Matrix Market files.",
    )
    defaults = Tolerances()
    for field, flag, text in _TOLERANCE_FLAGS:
        parser.add_argument(flag, type=float, default=None,
                            help=f"{text} (default {getattr(defaults, field)})")
    parser.add_argument("--json", action="store_true",
                        help="emit the report (or error object) as JSON on stdout")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for generators and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv", help="pseudoinverse, gamma, and axiom report")
    p.add_argument("t", metavar="T.mtx")
    p.add_argument("-o", "--output", default=None, help="write the pseudoinverse here")
    p.add_argument("--format", choices=("array", "coordinate"), default="array")

    p = sub.add_parser("check", help="hypothesis report for a perturbation pair")
    p.add_argument("t", metavar="T.mtx")
    p.add_argument("s", metavar="S.mtx")

    p = sub.add_parser("update", help="closed-form perturbed pseudoinverse")
    p.add_argument("t", metavar="T.mtx")
    p.add_argument("s", metavar="S.mtx")
    p.add_argument("--method", choices=("stewart", "relative", "neumann"), required=True)
    p.add_argument("--lambda1", type=float, default=None)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--eps-series", type=float, default=None)
    p.add_argument("--max-terms", type=int, default=10_000)
    p.add_argument("-o", "--output", default=None, help="write the updated pseudoinverse")
    p.add_argument("--format", choices=("array", "coordinate"), default="array")

    p = sub.add_parser("bounds", help="all applicable a-priori bounds vs measured truth")
    p.add_argument("t", metavar="T.mtx")
    p.add_argument("s", metavar="S.mtx")

    p = sub.add_parser("rol", help="reverse-order law for a factored operator")
    p.add_argument("f", metavar="F.mtx")
    p.add_argument("g", metavar="G.mtx")
    p.add_argument("-o", "--output", default=None, help="write the reverse-order pinv")
    p.add_argument("--format", choices=("array", "coordinate"), default="array")

    p = sub.add_parser("gen", help="write certified fixture matrices")
    gsub = p.add_subparsers(dest="what", required=True)

    g = gsub.add_parser("operator", help="random operator with prescribed spectrum")
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--cols", type=int, required=True)
    g.add_argument("--rank", type=int, default=None, help="defaults to full rank")
    g.add_argument("--gamma", type=float, default=1.0,
                   help="smallest nonzero singular value")
    g.add_argument("--norm", type=float, default=1.0, help="largest singular value")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--format", choices=("array", "coordinate"), default="array")

    g = gsub.add_parser("salpha", help="Stewart-certified perturbation of T")
    g.add_argument("-t", dest="t", required=True, metavar="T.mtx")
    g.add_argument("--alpha", type=float, default=None,
                   help="step in (0, 2/|pinv(T)|); defaults to the midpoint")
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--format", choices=("array", "coordinate"), default="array")

    g = gsub.add_parser("relperturb", help="relative-bound-certified perturbation")
    g.add_argument("-t", dest="t", required=True, metavar="T.mtx")
    g.add_argument("--lambda1", type=float, required=True)
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--format", choices=("array", "coordinate"), default="array")

    g = gsub.add_parser("adversarial", help="pair violating exactly one hypothesis")
    g.add_argument("--kind", required=True,
                   choices=("range_violation", "null_violation", "norm_violation"))
    g.add_argument("--out-t", required=True)
    g.add_argument("--out-s", required=True)
    g.add_argument("--format", choices=("array", "coordinate"), default="array")

    p = sub.add_parser("verify", help="run the full randomized invariant suite")
    p.add_argument("--trials", type=int, default=200,
                   help="randomized trials per suite (default 200)")
    p.add_argument("--seed", dest="verify_seed", type=int, default=None,
                   help="override the master seed for this run")
    p.add_argument("--max-dim", type=int, default=20)

    return parser


def _cmd_pinv(args, tol, files):
    t = files.read(args.t)
    pr = pseudoinverse(t, tol)
    norm_pinv = spectral_norm(pr.pinv)
    ax = _axioms(t, pr.pinv, float(pr.sigma[0]), norm_pinv, tol)
    if args.output:
        files.write(pr.pinv, args.output, format=args.format)
    report = Report(
        command="pinv",
        inputs={"t": args.t, "output": args.output, "arithmetic": _arithmetic(t)},
        verdicts={
            "rows": t.shape[0],
            "cols": t.shape[1],
            "rank": pr.rank,
            "gamma": pr.gamma,
            "sigma": [float(x) for x in pr.sigma],
            "norm_pinv": norm_pinv,
            "axioms": asdict(ax),
        },
    )
    return report, 0 if ax.passed else 1


def _cmd_check(args, tol, files):
    from .hypotheses import check_stewart_hypotheses

    t = files.read(args.t)
    s = files.read(args.s)
    rep = check_stewart_hypotheses(t, s, tol)
    any_certified = rep.verdict_stewart or rep.verdict_norm_gamma or rep.verdict_relative
    inputs = {"t": args.t, "s": args.s, "arithmetic": _arithmetic(t, s)}
    report = Report(command="check", inputs=inputs, verdicts=asdict(rep))
    return report, 0 if any_certified else 1


def _cmd_update(args, tol, files):
    from .perturb import neumann_pinv, update_relative_surjective, update_stewart

    t = files.read(args.t)
    s = files.read(args.s)
    inputs = {"t": args.t, "s": args.s, "method": args.method, "arithmetic": _arithmetic(t, s)}
    verdicts = {}
    if args.method == "stewart":
        res = update_stewart(t, s, tol)
        out = res.pinv_updated
    elif args.method == "relative":
        if args.lambda1 is None:
            raise ValueError("--lambda1 is required for --method relative")
        inputs.update({"lambda1": args.lambda1, "lambda2": args.lambda2})
        res = update_relative_surjective(t, s, args.lambda1, args.lambda2, tol)
        out = res.pinv_updated
    else:
        inputs.update({"eps_series": args.eps_series, "max_terms": args.max_terms})
        res = neumann_pinv(t, s, eps_series=args.eps_series,
                           max_terms=args.max_terms, tol=tol)
        verdicts["method"] = "neumann_series"
        out = res.pinv_s
    # the result's fields but its matrix
    verdicts.update((f.name, getattr(res, f.name)) for f in fields(res)
                    if f.name not in ("pinv_updated", "pinv_s"))
    if args.output:
        files.write(out, args.output, format=args.format)
        inputs["output"] = args.output
    return Report(command="update", inputs=inputs, verdicts=verdicts), 0


def _cmd_bounds(args, tol, files):
    from .hypotheses import _Pair
    from .perturb import (_ding_huang, _error_bound_lambda2_zero, _error_bound_stewart,
                          _gamma_continuity)

    # every bound reads the one pair, so each factorization and norm is
    # measured once; each verdict is what the public bound function returns
    pair = _Pair(files.read(args.t), files.read(args.s), tol)
    measured_diff = pair.norm_pinv_diff
    verdicts = {
        "measured_pinv_diff": measured_diff,
        "measured_pinv_norm": _norm_pinv(pair.pr_sum),
    }

    def dominated(bound_of):
        bound = bound_of(pair)
        return {"bound": bound, "measured": measured_diff,
                "dominates": pair.within(measured_diff, bound)}

    def ding_huang(case):
        entry = asdict(_ding_huang(pair, case))
        del entry["case"]
        return {**entry, "dominates": True}

    def gamma_continuity():
        # like Ding-Huang, the helper raised unless its bound dominates
        achieved, bound = _gamma_continuity(pair)
        return {"bound": bound, "measured": achieved, "dominates": True}

    routes = {"stewart": lambda: dominated(_error_bound_stewart),
              "lambda2_zero": lambda: dominated(_error_bound_lambda2_zero),
              **{f"ding_huang_{case}": lambda case=case: ding_huang(case)
                 for case in ("injective", "surjective", "general")},
              "gamma_continuity": gamma_continuity}
    for name, route in routes.items():
        try:
            verdicts[name] = {"applicable": True, **route()}
        except HypothesisRefusal as exc:
            verdicts[name] = {"applicable": False, "reason": str(exc)}

    failures = [v for v in verdicts.values()
                if isinstance(v, dict) and v["applicable"] and not v["dominates"]]
    inputs = {"t": args.t, "s": args.s, "arithmetic": _arithmetic(pair.mt)}
    report = Report(command="bounds", inputs=inputs, verdicts=verdicts)
    return report, 1 if failures else 0


def _cmd_rol(args, tol, files):
    from .reverse_order import reverse_order_pinv

    f = files.read(args.f)
    g = files.read(args.g)
    fp = reverse_order_pinv(f, g, tol)
    routes = (fp.pinv_oracle, fp.pinv_reverse, fp.pinv_closed_form)
    # the largest column norm bounds the scale below; the three norms are
    # measured only when that bound leaves the verdict open
    disc = fp.max_pairwise_discrepancy
    agree = (_within(disc, 0.0, max(_norm_bounds(m)[0] for m in routes), tol)
             or _within(disc, 0.0, max(spectral_norm(m) for m in routes), tol))
    if args.output:
        files.write(fp.pinv_reverse, args.output, format=args.format)
    report = Report(
        command="rol",
        inputs={"f": args.f, "g": args.g, "output": args.output,
                "arithmetic": _arithmetic(f, g)},
        verdicts={
            "product_shape": list(fp.a.shape),
            "max_pairwise_discrepancy": disc,
            "three_way_agreement": agree,
        },
    )
    return report, 0 if agree else 1


def _cmd_gen(args, tol, files):
    from .generators import (GenSpec, _check_alpha, _s_alpha_direction, adversarial_pair,
                             random_operator, random_relative_perturbation)

    inputs = {"what": args.what, "seed": args.seed}
    if args.what == "operator":
        rank = args.rank if args.rank is not None else min(args.rows, args.cols)
        spec = GenSpec(rows=args.rows, cols=args.cols, rank=rank,
                       gamma_target=args.gamma, norm_target=args.norm, seed=args.seed)
        m = random_operator(spec)
        files.write(m, args.output, format=args.format)
        sigma = singular_values(m)
        verdicts = {
            "written": args.output,
            "rank": rank,
            "achieved_norm": float(sigma[0]) if sigma.size else 0.0,
            "achieved_gamma": _gamma(sigma, m.shape, tol),
        }
    elif args.what == "salpha":
        from .hypotheses import _Pair

        t = files.read(args.t)
        gamma = reduced_min_modulus(t, tol)
        alpha = args.alpha if args.alpha is not None else gamma
        _check_alpha(alpha, gamma)  # s_alpha(t, alpha), with gamma(T) measured once
        s = alpha * _s_alpha_direction(t, tol)
        files.write(s, args.output, format=args.format)
        pair = _Pair(t, s, tol)
        verdicts = {
            "written": args.output,
            "alpha": alpha,
            "norm_S": pair.norm_s,
            "verdict_stewart": pair.stewart,
        }
        inputs["t"] = args.t
    elif args.what == "relperturb":
        t = files.read(args.t)
        s = random_relative_perturbation(t, args.lambda1, args.seed)
        files.write(s, args.output, format=args.format)
        verdicts = {
            "written": args.output,
            "lambda1": args.lambda1,
            "norm_S": spectral_norm(s),
        }
        inputs["t"] = args.t
    else:
        t, s = adversarial_pair(args.kind, args.seed)
        files.write(t, args.out_t, format=args.format)
        files.write(s, args.out_s, format=args.format)
        verdicts = {"kind": args.kind, "written_t": args.out_t, "written_s": args.out_s}
        inputs["kind"] = args.kind
    return Report(command="gen", inputs=inputs, verdicts=verdicts), 0


def _cmd_verify(args, tol, files):
    from .verify import run_verification

    seed = args.verify_seed if args.verify_seed is not None else args.seed
    verdicts, passed = run_verification(
        trials=args.trials, seed=seed, max_dim=args.max_dim, tol=tol
    )
    report = Report(
        command="verify",
        inputs={"trials": args.trials, "seed": seed, "max_dim": args.max_dim},
        verdicts={"suites": verdicts, "all_passed": passed},
    )
    return report, 0 if passed else 1


_COMMANDS = {
    "pinv": _cmd_pinv,
    "check": _cmd_check,
    "update": _cmd_update,
    "bounds": _cmd_bounds,
    "rol": _cmd_rol,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def _print_tree(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _print_tree(value, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(obj, list):
        print(pad + "[" + ", ".join(_scalar(v) for v in obj) + "]")
    else:
        print(pad + _scalar(obj))


def _scalar(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


def _emit_error(args, exc, code: int) -> int:
    if getattr(args, "json", False):
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, HypothesisRefusal):
            error["condition"] = exc.condition
        payload = {"command": getattr(args, "command", None), "error": error}
        print(json.dumps(payload, indent=2))
    else:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
    return code


def cli_dispatch(argv=None) -> int:
    """Parse arguments, run the command, print a report, return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code else 0

    files = _Files()
    start = time.perf_counter()
    try:
        tol = _resolve_tolerances(args)
        report, code = _COMMANDS[args.command](args, tol, files)
    except (HypothesisRefusal, SingularMatrixError, InvariantViolation) as exc:
        return _emit_error(args, exc, 1)
    except (MatrixMarketError, OSError, ValueError, DecompositionError) as exc:
        return _emit_error(args, exc, 2)

    report.timings["total_ms"] = (time.perf_counter() - start) * 1e3
    report.timings.update(files.timings)
    report.tolerances_used = asdict(tol)
    if args.json:
        print(serialize_report(report))
    else:
        print(f"command: {report.command}")
        _print_tree(report.verdicts)
        print(f"exit: {code}")
    return code


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
