"""tangentia benchmark: one workload, one fresh process, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload field-1d --seed 0 --seconds 40 --trace 0

``--trace 0`` repeats passes for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of passes plain
and again with spans installed, and reports the per-layer metrics.
``--size tiny`` shrinks every input for the smoke check.  The line
before the last records the run environment and details; the last line
is the result.  Exit codes: 0 done (check ``correct``), 2 no library
source in this checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import common
import tracing
import workloads

PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
TRACE_PASSES = 1  # passes per phase of a traced run


class CallFailed(Exception):
    pass


class Runner:
    """Times each library call and counts calls attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.cpu_s = 0.0

    def call(self, thunk):
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            return thunk()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise CallFailed from exc
        finally:
            self.latencies.append(time.perf_counter() - t0)
            self.cpu_s += time.process_time() - c0


def run_pass(wl, tg, funcs, inp, runner):
    """(library seconds, outputs or None when a call failed)."""
    before = sum(runner.latencies)
    try:
        out = wl.run(tg, funcs, inp, runner.call)
    except CallFailed:
        out = None
    return sum(runner.latencies) - before, out


def checked(wl, inp, out):
    """wl.check, with a check that raised counted as one failed check."""
    try:
        return wl.check(inp, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return [("oracle check raised", math.inf, 1.0)], []


def worst_ratio(checks):
    return max((err / tol for _, err, tol in checks), default=0.0)


def tent_miss_share(wl, tg, funcs):
    """Share of the workload's tent probes (known defects) that fail their
    check; 0 for a workload without them.  A probe that raises counts as
    failed."""
    if not hasattr(wl, "tent_checks"):
        return 0.0
    try:
        checks = wl.tent_checks(tg, funcs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 1.0
    return sum(err > tol for _, err, tol in checks) / len(checks)


def setup_seconds(name):
    """Wall time from spawning a fresh interpreter to its ``ready`` line."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(probe), name], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return ready


def blas_threads():
    """OpenBLAS thread counts of the numpy and scipy builds, where exposed."""
    found = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    found[path.name] = int(getattr(lib, sym)())
                    break
    return found


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (common.ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((common.SRC / "tangentia").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def p90(values):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def measure(wl, tg, funcs, seed, seconds):
    """Passes with tracing off until the time is spent; end-to-end metrics."""
    setup = [setup_seconds(wl.name) for _ in range(PROBES)]
    runner = Runner()
    pass_s, checks, radii_checks = [], [], []
    correct = True
    start = time.perf_counter()
    index = 0
    while True:
        inp = wl.inputs(seed, index)
        solve, out = run_pass(wl, tg, funcs, inp, runner)
        index += 1
        if out is None:
            correct = False
        else:
            pass_s.append(solve)
            gated, recorded = checked(wl, inp, out)
            checks += gated
            radii_checks += recorded
        elapsed = time.perf_counter() - start
        # start another pass only if one more fits in the time
        if runner.attempted >= wl.min_calls and elapsed * (index + 1) / index > seconds:
            break
    ratio = worst_ratio(checks)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median(pass_s) if pass_s else float("inf"), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    detail = {
        "passes": index, "calls": runner.attempted, "pass_s": pass_s, "setup_samples_s": setup,
        "op_p50_ms": 1e3 * statistics.median(runner.latencies),
        "op_p90_ms": 1e3 * p90(runner.latencies),
        "oracle_checks": len(checks), "oracle_err_ratio": ratio,
        "radius_err_ratio": worst_ratio(radii_checks), "fail_ratio": runner.failed / runner.attempted,
    }
    correct = correct and ratio <= 1.0 and runner.failed == 0
    return correct, runner.attempted, runner.failed, metrics, detail


def measure_traced(wl, tg, funcs, seed):
    """A fixed number of passes plain, traced, then plain again.

    The first plain phase warms lazy imports and caches; the overhead
    compares the traced phase with the second.  All three phases must
    produce bit-identical outputs.
    """
    evals = tracing.EvalCounter()
    counted = {k: evals.wrap(f) for k, f in funcs.items()}
    tracer = tracing.Tracer(tg)
    phases = [(Runner(), funcs, False), (Runner(), counted, True), (Runner(), funcs, False)]
    solve_s, digests, checks, radii_checks = [], [], [], []
    correct = True
    for p, (runner, fs, traced) in enumerate(phases):
        total, hashes = 0.0, []
        if traced:
            tracer.install()
        try:
            for index in range(TRACE_PASSES):
                inp = wl.inputs(seed, index)
                solve, out = run_pass(wl, tg, fs, inp, runner)
                total += solve
                if out is None:
                    correct = False
                    continue
                if p == 0:  # later phases must match these outputs bit for bit
                    gated, recorded = checked(wl, inp, out)
                    checks += gated
                    radii_checks += recorded
                h = hashlib.sha256()
                workloads.digest(out, h)
                hashes.append(h.hexdigest())
        finally:
            tracer.restore()
        solve_s.append(total)
        digests.append(hashes)
    identical = digests[0] == digests[1] == digests[2]
    attempted = sum(r.attempted for r, _, _ in phases)
    failed = sum(r.failed for r, _, _ in phases)
    plain, plain_s, traced_s = phases[2][0], solve_s[2], solve_s[1]
    ratio = worst_ratio(checks)
    metrics = tracer.metrics(evals)
    metrics["proc.cpu_s"] = (plain.cpu_s, "s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0 if plain_s else 0.0, "1")
    metrics["fail_ratio"] = (failed / attempted, "1")
    metrics["oracle_err_ratio"] = (ratio, "1")
    metrics["maxop.radius_err_ratio"] = (worst_ratio(radii_checks), "1")
    metrics["maxop.tent_miss_share"] = (tent_miss_share(wl, tg, funcs), "1")
    detail = {
        "passes": TRACE_PASSES, "calls": attempted, "traced_identical": identical,
        "plain_solve_s": plain_s, "traced_solve_s": traced_s, "oracle_checks": len(checks),
    }
    correct = correct and identical and ratio <= 1.0 and failed == 0
    return correct, attempted, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    try:
        tg = common.load_tangentia()
    except common.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    funcs = common.set_up(tg, wl.name)
    env = environment(args.seed)
    if args.trace:
        correct, attempted, failed, metrics, detail = measure_traced(wl, tg, funcs, args.seed)
    else:
        correct, attempted, failed, metrics, detail = measure(wl, tg, funcs, args.seed, args.seconds)
    print(json.dumps({"workload": wl.name, "size": args.size, "trace": args.trace,
                      "env": env, "detail": detail}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
