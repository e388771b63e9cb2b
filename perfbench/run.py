"""Benchmark of the pinvperturb calculator: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli_files --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1                # every workload, both modes
    python3 perfbench/run.py --workload cli_files --seed 1 --replay 8

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload as a closed loop with one client and
no think time. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones (see perfbench/NOTES.md). The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics; an
environment record and the failure log go to perfbench/results/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("cli_files", "lib_updates", "verify_suite")
SETUP_REPS = 3
# BLAS threads, set explicitly. One is no more than any nproc; at these sizes
# it was faster than two on a 2-CPU host and is not stalled when the other
# CPU is busy.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="op time to measure; whole rounds, at least the workload's minimum")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, default=None, metavar="OP",
                   help="rebuild and run one op of the workload, then check it")
    return p.parse_args(argv)


def tail_percentile(values):
    """Highest order statistic with at least 10 samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def blas_record():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        vendor = "unknown"
    return {"vendor": vendor, "threads": THREADS,
            "thread_variables": ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]}


def environment(wl, args):
    import platform

    import numpy as np
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "round_size": wl.round_size,
        "min_rounds": wl.min_rounds,
        "setup_reps": SETUP_REPS,
        "mix": wl.describe(),
    }


# The host's speed drifts: on the 2-CPU host this benchmark was tuned on, a
# fixed-work loop ran between 177 and 265 iterations a second in 5 s windows
# with no CPU steal. Every timing is therefore scaled by a calibration kernel
# timed right before and after it, and reads what it would on a host where
# calibrate() takes CAL_REF_S (about its median there). Raw figures go to
# the results file.
CAL_REF_S = 0.006


def calibrate():
    """Seconds taken by fixed work that never touches the package.

    Small and medium complex SVDs, float formatting and parsing, and a
    pure-Python loop: the kinds of work the workloads do, in one kernel.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal((12, 10)) + 1j * rng.standard_normal((12, 10))
    medium = rng.standard_normal((100, 80)) + 1j * rng.standard_normal((100, 80))
    values = rng.standard_normal(1000)
    t0 = time.perf_counter()
    for _ in range(50):
        np.linalg.svd(small)
    np.linalg.svd(medium)
    np.array(" ".join(format(x, ".17g") for x in values).split(), dtype=float)
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


class ColdStart:
    """Fresh `python -m pinvperturb.cli --json pinv` processes on a 3x2 file.

    One spawn follows every round, so the samples spread over the run
    instead of sitting in one slow or fast stretch of the host.
    """

    def __init__(self, workdir):
        path = os.path.join(workdir, "cold.mtx")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%%MatrixMarket matrix array real general\n3 2\n1\n0\n0\n0\n2\n0\n")
        self.cmd = [sys.executable, "-m", "pinvperturb.cli", "--json", "pinv", path]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.raw_ms, self.scaled_ms, self.bad = [], [], []
        self.spawn(1.0)  # warms the file cache; not a sample
        self.raw_ms.clear()
        self.scaled_ms.clear()
        self.bad.clear()

    def spawn(self, scale):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60)
        dt = (time.perf_counter() - t0) * 1e3
        self.raw_ms.append(dt)
        self.scaled_ms.append(dt * scale)
        if proc.returncode != 0:
            self.bad.append(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")


def run_workload(wl, args, tracer_mod):
    tr = tracer_mod.Tracer() if args.trace else None
    t_import = time.perf_counter() - T_START

    pending, setup, setup_cal = {}, [], []
    for rep in range(SETUP_REPS):
        if tr:
            tr.install()
        t0 = time.perf_counter()
        pending[rep] = wl.build_round(rep)
        wl.warmup(rep)
        setup.append(time.perf_counter() - t0)
        if tr:
            tr.uninstall()
        setup_cal.append(calibrate())

    selfcheck = run_selfcheck(wl, tr, tracer_mod) if tr else None
    cold = None if tr else ColdStart(wl.workdir)

    # rounds: (traced, [(op id, kind)], op seconds, per-op scales to the reference host)
    rounds, failures = [], []
    busy, r = 0.0, 0
    # a traced run alternates traced and untraced rounds and ends on a pair
    step = 2 if tr else 1
    while busy < args.seconds or r < wl.min_rounds or r % step:
        ops = pending.pop(r, None) or wl.build_round(r)
        traced = tr is not None and r % 2 == 0
        lat, scales = [], []
        before = calibrate()
        for op in ops:
            if traced:
                tr.install()
                tr.op = op.index
            t0 = time.perf_counter()
            op.outcome = op.run()
            lat.append(time.perf_counter() - t0)
            if traced:
                tr.uninstall()
                tr.op = None
            after = calibrate()
            scales.append(2 * CAL_REF_S / (before + after))
            before = after
        if cold:
            cold.spawn(CAL_REF_S / after)
        for op in ops:
            reason = op.verdict(op.outcome)
            op.outcome = None
            if reason:
                failures.append(failure(wl, args, op.index, op.kind, op.describe, reason,
                                        op.known_defect))
        wl.discard(r)
        rounds.append((traced, [(op.index, op.kind) for op in ops], lat, scales))
        busy += sum(lat)
        r += 1

    def throughput(sel):
        return (sum(len(lat) for _, _, lat, _ in sel)
                / sum(dt * f for _, _, lat, scales in sel for dt, f in zip(lat, scales)))

    attempted = sum(len(lat) for _, _, lat, _ in rounds)
    info = {"rounds": len(rounds), "busy_s": busy, "import_s": t_import,
            "setup_reps_s": setup, "setup_calibration_s": setup_cal,
            "op_scales": [scales for *_, scales in rounds]}
    if tr:
        thr_on = throughput([x for x in rounds if x[0]])
        thr_off = throughput([x for x in rounds if not x[0]])
        # the layer table uses the traced rounds among the first min_rounds,
        # a set fixed by the seed, so its counts repeat exactly
        traced_ops = [(i, kind, dt) for t, ids, lat, _ in rounds[:wl.min_rounds] if t
                      for (i, kind), dt in zip(ids, lat)]
        metrics = tracer_mod.layer_metrics(tr, traced_ops, SETUP_REPS,
                                           100.0 * (thr_off - thr_on) / thr_off)
        info.update(selfcheck=selfcheck, not_measured=tr.not_measured,
                    throughput_traced=thr_on, throughput_untraced=thr_off)
        ok_tracer = selfcheck["passed"]
    else:
        first = rounds[:wl.min_rounds]
        lat_ms = [dt * 1e3 * f for _, _, lat, scales in first for dt, f in zip(lat, scales)]
        raw_ms = [dt * 1e3 for _, _, lat, _ in first for dt in lat]
        tail, pct = tail_percentile(lat_ms)
        cmd = " ".join(cold.cmd)
        failures += [failure(wl, args, "cold_start", "cold_start", cmd, reason, None, cmd)
                     for reason in cold.bad]
        attempted += len(cold.raw_ms)
        setup_s = t_import * CAL_REF_S / setup_cal[0] + statistics.median(
            dt * CAL_REF_S / c for dt, c in zip(setup, setup_cal))
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (throughput(rounds), "1/s"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            "latency_tail_ms": (tail, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cold_start_ms": (statistics.median(cold.scaled_ms), "ms"),
        }
        info.update(latency_tail_percentile=pct, latency_samples=len(lat_ms),
                    cold_start_samples=len(cold.raw_ms), unscaled={
                        "setup_s": t_import + statistics.median(setup),
                        "throughput_ops_s": sum(len(lat) for _, _, lat, _ in rounds) / busy,
                        "latency_p50_ms": statistics.median(raw_ms),
                        "latency_tail_ms": tail_percentile(raw_ms)[0],
                        "cold_start_ms": statistics.median(cold.raw_ms)})
        ok_tracer = True
    failed = len(failures)
    info["fail_ratio"] = failed / attempted
    correct = ok_tracer and all(f["known_defect"] for f in failures)
    return correct, attempted, failed, metrics, info, failures


def failure(wl, args, op, kind, call, reason, known_defect, replay=None):
    if replay is None:
        replay = (f"python3 perfbench/run.py --workload {wl.name} --seed {args.seed}"
                  f" --replay {op}")
    return {"workload": wl.name, "seed": args.seed, "op": op, "kind": kind, "call": call,
            "reason": reason, "known_defect": known_defect, "replay": replay}


def run_selfcheck(wl, tr, tracer_mod):
    """Span counts on one fixed op must equal counts taken without the tracer."""
    op = wl.selfcheck_op()
    independent = tracer_mod.independent_counts(op.call)
    tr.install()
    tr.op = "selfcheck"
    try:
        op.call()
    finally:
        tr.uninstall()
        tr.op = None
    wl.discard("selfcheck")
    spans = tr.span_counts("selfcheck")
    names = sorted(set(spans) | set(independent))
    mismatches = {n: {"spans": spans[n], "independent": independent[n]}
                  for n in names if spans[n] != independent[n]}
    return {"op": op.describe, "counts": {n: spans[n] for n in names},
            "mismatches": mismatches, "passed": not mismatches}


def print_metrics(metrics, info):
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "fail_ratio" in info:
        print(f"fail_ratio = {info['fail_ratio']:.6g} ratio")
    if "latency_tail_percentile" in info:
        print(f"latency_tail_ms is p{info['latency_tail_percentile']:.1f}"
              f" of {info['latency_samples']} samples")


def replay(wl, index):
    ops = wl.build_round(index // wl.round_size)
    op = ops[index % wl.round_size]
    print(f"op {op.index} ({op.kind}): {op.describe}")
    outcome = op.run()
    reason = op.verdict(outcome)
    if hasattr(outcome, "stdout"):
        print(outcome.stdout.rstrip())
    wl.discard(index // wl.round_size)
    print("PASS" if reason is None else f"FAIL: {reason}")
    return 0 if reason is None else 1


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} --trace {trace} (exit {proc.returncode})")
            for line in lines[:-1]:
                print("  " + line)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                return 1
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pinvperturb" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/pinvperturb; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import pinvperturb
    if Path(pinvperturb.__file__).resolve().parent != SRC / "pinvperturb":
        print(f"error: imported pinvperturb from {pinvperturb.__file__}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        if args.replay is not None:
            return replay(wl, args.replay)
        correct, attempted, failed, metrics, info, failures = run_workload(wl, args, tracer_mod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in failures:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"{tag}: op {f['op']} ({f['kind']}): {f['reason']}\n  replay: {f['replay']}",
              file=sys.stderr)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"environment": environment(wl, args), "run": info, "failures": failures,
              "result": result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print_metrics(metrics, info)
    print(f"environment and failures: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
