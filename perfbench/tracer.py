"""Spans around the package's public functions, recorded from outside it.

Nothing under ``src/`` changes. :meth:`Tracer.install` replaces every binding
of each wrapped function -- its home module's global and every
``from ... import`` copy in the other package modules -- with a timing
wrapper, and :meth:`Tracer.uninstall` restores the originals. The linalg
layer is the SVD and solve kernels: ``numpy.linalg.svd`` and
``numpy.linalg.solve`` are wrapped on the ``numpy.linalg`` module, which is
where the package looks them up at call time.

Spans stay in memory as ``[name, start, end, parent, op, info]`` lists and
are reduced to per-layer metrics when the run ends.
"""

import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

# layer -> public functions wrapped in that layer (the package's modules)
WRAPPED = {
    "cli": ("cli_dispatch",),
    "mmio": ("read_matrix", "write_matrix"),
    "report": ("serialize_report",),
    "pinv": ("pseudoinverse", "reduced_min_modulus", "verify_mp_axioms"),
    "hypotheses": (
        "check_stewart_hypotheses",
        "check_range_inclusion",
        "check_null_inclusion",
        "check_relative_bound",
        "estimate_lambda1",
    ),
    "perturb": (
        "update_stewart",
        "update_relative_surjective",
        "neumann_pinv",
        "error_bound_stewart",
        "error_bound_lambda2_zero",
        "gamma_continuity_bound",
        "norm_bounds_ding_huang",
    ),
    "reverse_order": ("reverse_order_pinv", "check_rol_hypotheses"),
    "generators": (
        "random_operator",
        "s_alpha",
        "haar_unitary",
        "random_contraction",
        "random_relative_perturbation",
        "adversarial_pair",
    ),
    "verify": (
        "run_verification",
        "suite_mp_axioms",
        "suite_stewart",
        "suite_relative",
        "suite_neumann",
        "suite_reverse_order",
        "suite_gamma_continuity",
        "suite_typo_regressions",
    ),
}
KERNELS = ("svd", "solve")

BOUNDS_FUNCS = (
    "perturb.error_bound_stewart",
    "perturb.error_bound_lambda2_zero",
    "perturb.gamma_continuity_bound",
    "perturb.norm_bounds_ding_huang",
)
VERIFY_SUITES = {
    "verify.mp_axioms_ms": "verify.suite_mp_axioms",
    "verify.stewart_ms": "verify.suite_stewart",
    "verify.relative_ms": "verify.suite_relative",
    "verify.neumann_ms": "verify.suite_neumann",
    "verify.reverse_order_ms": "verify.suite_reverse_order",
    "verify.gamma_continuity_ms": "verify.suite_gamma_continuity",
    "verify.typo_regressions_ms": "verify.suite_typo_regressions",
}
CLI_KINDS = ("pinv", "check", "update_stewart", "update_relative", "update_neumann",
             "bounds", "rol", "gen", "refusal")


def svd_flops(m: int, n: int, compute_uv: bool, full: bool) -> float:
    """Flops of one complex SVD, computed from its shape.

    Golub and Van Loan's Golub-Reinsch counts for an m x n real matrix with
    m >= n (values only 4mn^2 - 4n^3/3; thin U 14mn^2 + 8n^3; full U
    4m^2n + 8mn^2 + 9n^3), times 4 for complex arithmetic. A model, not a
    hardware counter.
    """
    if m < n:
        m, n = n, m
    if not compute_uv:
        real = 4 * m * n * n - 4 * n**3 / 3
    elif full:
        real = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        real = 14 * m * n * n + 8 * n**3
    return 4.0 * real


def _svd_info(args, kwargs, _result):
    shape = np.shape(args[0])
    uv = kwargs.get("compute_uv", True)
    full = kwargs.get("full_matrices", True)
    return (bool(uv and full), svd_flops(shape[-2], shape[-1], uv, full))


def _file_bytes(index):
    def info(args, kwargs, _result):
        path = args[index] if len(args) > index else kwargs.get("path")
        return os.path.getsize(path)
    return info


INFO = {
    "mmio.read_matrix": _file_bytes(0),
    "mmio.write_matrix": _file_bytes(1),
    "linalg.svd": _svd_info,
    "perturb.neumann_pinv": lambda a, k, result: result.terms_used,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pinvperturb" or name.startswith("pinvperturb."))]


def wrapped_functions():
    """(span name, function) for every wrapped name; a missing name maps to None."""
    out = []
    for layer, names in WRAPPED.items():
        home = sys.modules.get(f"pinvperturb.{layer}")
        for fname in names:
            out.append((f"{layer}.{fname}", getattr(home, fname, None)))
    return out


class Tracer:
    """In-memory span recorder; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self.not_measured = sorted(name for name, fn in wrapped_functions() if fn is None)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = _package_modules()
        for name, fn in wrapped_functions():
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for kernel in KERNELS:
            fn = getattr(np.linalg, kernel)
            self._patches.append((np.linalg, kernel, fn))
            setattr(np.linalg, kernel, self._wrap(f"linalg.{kernel}", fn))

    def uninstall(self):
        while self._patches:
            mod, attr, fn = self._patches.pop()
            setattr(mod, attr, fn)

    def span_counts(self, op):
        return Counter(s[0] for s in self.spans if s[4] == op)


def independent_counts(call):
    """Run ``call`` untraced and count calls into every wrapped function.

    A profile hook counts entries into the code objects of the original
    package functions and of numpy's own svd and solve implementations. It
    shares no code with the tracer, so a binding the tracer missed, or an
    SVD reached through another numpy entry point such as
    ``np.linalg.norm(a, 2)``, shows as a mismatch.
    """
    codes = {fn.__code__: name for name, fn in wrapped_functions() if fn is not None}
    for kernel in KERNELS:
        fn = getattr(np.linalg, kernel)
        codes[getattr(fn, "_implementation", fn).__code__] = f"linalg.{kernel}"
    counts = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return counts


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _outermost(spans, layer):
    """Spans of ``layer`` whose ancestors are all outside that layer."""
    out = []
    for s in spans:
        parent = s[3]
        nested = False
        while parent >= 0:
            if spans[parent][0].startswith(layer + "."):
                nested = True
                break
            parent = spans[parent][3]
        if not nested and s[0].startswith(layer + "."):
            out.append(s)
    return out


def layer_metrics(tracer, traced_ops, setup_reps, overhead_pct):
    """Reduce the spans of the traced ops to the per-layer metric table.

    traced_ops is a list of (op id, kind, wall seconds). Times and counts are
    per op, averaged over every traced op; cli.<kind>_ms are medians over
    the ops of that kind.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    op_ids = {op for op, _, _ in traced_ops}
    n = max(len(traced_ops), 1)
    wall_ms = sum(w for _, _, w in traced_ops) * 1e3
    total = Counter()
    calls = Counter()
    info = Counter()
    cli_self = 0.0
    full_svd = 0
    op_cli = {}
    for s, self_s in zip(spans, selfs):
        if s[4] not in op_ids:
            continue
        name = s[0]
        dur = (s[2] - s[1]) * 1e3
        total[name] += dur
        calls[name] += 1
        if name.startswith("cli."):
            cli_self += self_s * 1e3
        if name == "cli.cli_dispatch" and s[3] < 0:
            op_cli[s[4]] = dur
        if name == "linalg.svd" and s[5] is not None:
            full_svd += s[5][0]
            info[name] += s[5][1]
        elif s[5] is not None:
            info[name] += s[5]

    setup_spans = [s for s in spans if s[4] is None]
    gen_ms = sum((s[2] - s[1]) * 1e3 for s in _outermost(setup_spans, "generators"))

    def per_op(x):
        return x / n

    def rate(nbytes, ms):
        return nbytes / 1e6 / (ms / 1e3) if ms > 0 else 0.0

    kinds = {}
    for op, kind, _ in traced_ops:
        if op in op_cli:
            kinds.setdefault(kind, []).append(op_cli[op])
    svd_ms = total["linalg.svd"]
    solve_ms = total["linalg.solve"]
    mmio_ms = total["mmio.read_matrix"] + total["mmio.write_matrix"]

    m = {}
    for kind in CLI_KINDS:
        m[f"cli.{kind}_ms"] = (statistics.median(kinds[kind]) if kind in kinds else 0.0, "ms")
    m["cli.self_ms"] = (per_op(cli_self), "ms")
    m["mmio.read_ms"] = (per_op(total["mmio.read_matrix"]), "ms")
    m["mmio.write_ms"] = (per_op(total["mmio.write_matrix"]), "ms")
    m["mmio.read_MBps"] = (rate(info["mmio.read_matrix"], total["mmio.read_matrix"]), "MB/s")
    m["mmio.write_MBps"] = (rate(info["mmio.write_matrix"], total["mmio.write_matrix"]), "MB/s")
    m["mmio.share"] = (mmio_ms / wall_ms if wall_ms else 0.0, "ratio")
    m["report.serialize_ms"] = (per_op(total["report.serialize_report"]), "ms")
    m["linalg.svd_calls"] = (per_op(calls["linalg.svd"]), "count")
    m["linalg.svd_full_calls"] = (per_op(full_svd), "count")
    m["linalg.svd_ms"] = (per_op(svd_ms), "ms")
    m["linalg.svd_gflop"] = (per_op(info["linalg.svd"]) / 1e9, "gflop")
    m["linalg.solve_calls"] = (per_op(calls["linalg.solve"]), "count")
    m["linalg.solve_ms"] = (per_op(solve_ms), "ms")
    m["linalg.share"] = ((svd_ms + solve_ms) / wall_ms if wall_ms else 0.0, "ratio")
    m["pinv.pseudoinverse_calls"] = (per_op(calls["pinv.pseudoinverse"]), "count")
    m["pinv.pseudoinverse_ms"] = (per_op(total["pinv.pseudoinverse"]), "ms")
    m["pinv.axioms_ms"] = (per_op(total["pinv.verify_mp_axioms"]), "ms")
    m["hypotheses.check_stewart_calls"] = (
        per_op(calls["hypotheses.check_stewart_hypotheses"]), "count")
    m["hypotheses.check_stewart_ms"] = (
        per_op(total["hypotheses.check_stewart_hypotheses"]), "ms")
    m["hypotheses.relative_bound_calls"] = (
        per_op(calls["hypotheses.check_relative_bound"]), "count")
    m["hypotheses.relative_bound_ms"] = (
        per_op(total["hypotheses.check_relative_bound"]), "ms")
    m["perturb.update_stewart_ms"] = (per_op(total["perturb.update_stewart"]), "ms")
    m["perturb.update_relative_ms"] = (
        per_op(total["perturb.update_relative_surjective"]), "ms")
    m["perturb.neumann_ms"] = (per_op(total["perturb.neumann_pinv"]), "ms")
    m["perturb.neumann_terms"] = (per_op(info["perturb.neumann_pinv"]), "count")
    m["perturb.bounds_ms"] = (per_op(sum(total[f] for f in BOUNDS_FUNCS)), "ms")
    m["reverse_order.rol_ms"] = (per_op(total["reverse_order.reverse_order_pinv"]), "ms")
    m["generators.setup_ms"] = (gen_ms / max(setup_reps, 1), "ms")
    for metric, name in VERIFY_SUITES.items():
        m[metric] = (per_op(total[name]), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
