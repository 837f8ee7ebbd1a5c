"""Known defect, measured as a share: sigma_decompose on three lines
crossing at one point.

Each cloud samples three lines through the origin with Gaussian noise
of 1e-4.  With ``random`` layout the three directions are drawn from the
seed; with ``even`` layout they are 60 degrees apart, turned by an angle
drawn from the seed.  Such a cloud is the union of three 1-tangential
pieces, so ``sigma_decompose(cloud, 1)`` should pass.  The script
prints the share of failing cases per layout and size, and overall.  It
is a record, not a gate: it exits 0 whatever the share.

Usage: python3 perfbench/defect_cross.py [--seeds 10] [--sizes 32,64,128,256]
"""

import argparse
import json

import numpy as np

import common

NOISE = 1e-4


def crossing_cloud(layout: str, seed: int, per_line: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if layout == "random":
        angles = rng.uniform(0.0, np.pi, size=3)
    else:
        angles = rng.uniform(0.0, np.pi / 3.0) + np.pi / 3.0 * np.arange(3)
    lines = []
    for ang in angles:
        t = rng.uniform(-1.0, 1.0, size=per_line)
        d = np.array([np.cos(ang), np.sin(ang)])
        lines.append(t[:, None] * d[None, :] + NOISE * rng.standard_normal((per_line, 2)))
    return np.vstack(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sizes", default="32,64,128,256", help="points per line, comma-separated")
    args = ap.parse_args(argv)
    tg = common.load_tangentia()
    table = []
    for layout in ("random", "even"):
        for size in (int(s) for s in args.sizes.split(",")):
            failed = sum(
                not tg.tangency.sigma_decompose(crossing_cloud(layout, seed, size), 1)[0]
                for seed in range(args.seeds)
            )
            table.append({"layout": layout, "per_line": size, "failed": failed, "cases": args.seeds})
            print(json.dumps(table[-1]))
    failed = sum(row["failed"] for row in table)
    cases = sum(row["cases"] for row in table)
    print(json.dumps({"fail_share": failed / cases, "failed": failed, "cases": cases}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
