"""Smoke test of the benchmark itself, at tiny sizes.

Runs every workload of ``workloads.py`` with ``--size tiny``, untraced
and traced, and checks that each run exits 0, reports ``correct`` (oracles
pass, and traced outputs match untraced ones bit for bit), and emits
exactly the metric names of BENCHMARK.json with their units.  It takes
about a minute; field-3d still builds its full 3D rule (about 1.9 GB).

Usage: python3 perfbench/smoke.py
"""

import json
import math
import subprocess
import sys

import common
import workloads


def main():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", name, "--seed", "0", "--seconds", "1",
                                     "--trace", str(trace), "--size", "tiny"]
            cmd[0] = sys.executable
            done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, check=False)
            label = f"{name} trace={trace}"
            found = check_run(done, expected[trace])
            print(f"{label}: " + ("; ".join(found) if found else "ok"))
            problems += found
    if problems:
        print(f"{len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("smoke: all workloads pass")
    return 0


def check_run(done, expected):
    """Problems with one run's exit code, result keys, correctness and metrics."""
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    problems = []
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        problems.append(f"missing {missing}, extra {extra}, wrong units {wrong}")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
    if bad:
        problems.append(f"non-finite values {bad}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
