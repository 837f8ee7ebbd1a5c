"""Command-line driver.

One subcommand per capability (field sweeps, derivatives, the
non-differentiability measure and degree, singular and medial scans,
infimal convolution, tangency reports) plus ``verify``, which runs the
acceptance suites of :mod:`tangentia.verify`.  Runs are reproducible:
identical argv and seed produce byte-identical artifact bodies, and every
output carries the fully resolved configuration in a leading comment line.
The library returns arrays; the CSV artifacts are formatted here alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from . import funcspace, maxop, nonsmooth, semilinear, specials, tangency
from .errors import SpecParseError, TangentiaError
from .verify import SUITES

__all__ = ["ExperimentConfig", "main", "run"]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved invocation: command plus every option after defaults.

    The resolved form (defaults included) is echoed into artifact
    headers as JSON.
    """

    command: str
    options: Dict[str, object]

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "options": self.options}, sort_keys=True
        )


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    skip = ("command", "func", "config")
    opts = {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                override = json.load(fh)
        except (OSError, UnicodeDecodeError, ValueError) as exc:
            raise SpecParseError(f"--config {args.config}: {exc}") from exc
        if not isinstance(override, dict):
            raise SpecParseError(f"--config {args.config}: expected a JSON object")
        # a key is an option's name in the header, with - or _
        flags = {a.dest: a for a in args._parser._actions if a.dest in opts}
        for k, v in override.items():
            action = flags.get(k.replace("-", "_"))
            if action is None:
                raise SpecParseError(f"--config key {k!r}: not one of {sorted(flags)}")
            opts[action.dest] = _config_value(k, v, action)
    return ExperimentConfig(args.command, opts)


def _config_value(key: str, value, action: argparse.Action):
    """A --config value read as the flag's parser reads the flag's text; a
    value the flag would refuse is a usage error that names the key."""
    if isinstance(value, list) and action.type is _node_counts:
        value = ",".join(map(str, value))  # one count per axis, as headers write them
    if action.nargs == 0:  # a switch such as --strict
        ok = isinstance(value, bool)
    elif value is None:  # the unset default of an optional flag
        ok = action.default is None and not action.required
    elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            value = (action.type or str)(str(value))
            ok = action.choices is None or value in action.choices
        except ValueError:
            ok = False
    else:
        ok = False
    if not ok:
        flag = action.option_strings[0]
        raise SpecParseError(f"--config key {key!r}: {value!r} is not a valid {flag}")
    return value


def _write_csv(path: str, cfg: ExperimentConfig, columns, rows):
    """Write a CSV artifact once: the config comment line, the column
    names, then one line per row.  A string cell is written as it is and a
    number as %.12g, which writes an integer below 1e12 in full and a bool
    flag as 1 or 0."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + cfg.to_json() + "\n" + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row) + "\n")


def _coordinates(n: int) -> list:
    return [f"x{i + 1}" for i in range(n)]


def _write_json(path: Optional[str], cfg: ExperimentConfig, payload: dict):
    doc = {"config": json.loads(cfg.to_json()), "result": payload}
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_point(s: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in s.replace("(", "").replace(")", "").split(",")])
    except ValueError as exc:
        raise SpecParseError(f"bad point {s!r}: {exc}")


def _node_counts(s: str):
    """``--res`` and ``--y-res``: one node count for every axis (``5``) or
    one per axis (``5,1``), as ``funcspace._box_grid`` takes them."""
    counts = tuple(int(t) for t in s.split(","))
    return counts[0] if len(counts) == 1 else counts


def _parse_box(s: str, n: int, resolution):
    """``lo,hi`` (all axes) or ``lo1,hi1;lo2,hi2;...`` per axis, for a grid
    of ``resolution`` nodes, one count for every axis or one per axis.  A
    box the library's box rule refuses, or a count for each of the wrong
    number of axes, is a usage error; a corner that is not finite is left
    to the library."""
    pairs = [p for p in s.split(";") if p]
    vals = [_parse_point(p) for p in pairs]
    if any(v.size != 2 for v in vals):
        raise SpecParseError(f"box {s!r}: each axis needs lo,hi")
    if len(vals) == 1 and n > 1:
        vals = vals * n
    if len(vals) != n:
        raise SpecParseError(f"box {s!r} has {len(vals)} axes, function has {n}")
    lo = np.array([v[0] for v in vals])
    hi = np.array([v[1] for v in vals])
    counts = np.asarray(resolution)
    if counts.size not in (1, n):
        raise SpecParseError(
            f"resolution {resolution} has {counts.size} node counts, the box has {n} axes"
        )
    try:
        funcspace._box_order(lo, hi, counts)
    except ValueError as exc:
        raise SpecParseError(f"box {s!r}: {exc}") from None
    return lo, hi


def _parse_subspace(s: str, n: int) -> semilinear.SemiLinearSubspace:
    """``full`` | ``V=[v1;v2]`` and/or ``ray=[b]``, e.g. ``V=[0,1];ray=[1,0]``."""
    import re

    if s == "full":
        return semilinear.full_space(n)
    mv = re.search(r"V=\[([^\]]*)\]", s)
    mr = re.search(r"ray=\[([^\]]*)\]", s)
    if mv is None and mr is None:
        raise SpecParseError(
            f"subspace spec {s!r}: expected 'full', 'V=[...]' and/or 'ray=[...]'"
        )
    vecs, rays = (
        [_parse_point(t) for t in m.group(1).split(";") if t.strip()] if m else []
        for m in (mv, mr)
    )
    return semilinear.semilinear(n, vecs, rays)


def _load_set(opts) -> specials.ClosedSetModel:
    if opts.get("set_points"):
        pts = [_parse_point(p) for p in opts["set_points"].split(";") if p]
        return specials.ClosedSetModel.from_points(pts)
    if opts.get("set_polygon"):
        with open(opts["set_polygon"], "r", encoding="utf-8") as fh:
            verts = json.load(fh)
        return specials.ClosedSetModel.from_polygon(verts)
    raise SpecParseError("provide --set-points or --set-polygon")


# ---------------------------------------------------------------------------
# subcommands


def cmd_maximal_field(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    lo, hi = _parse_box(o["box"], f.dimension, o["res"])
    pts, values, radii = maxop.maximal_field(f, (lo, hi), o["res"], lam=o["lam"], r_max=o["r_max"])
    # ragged best-radius sets are padded with empty cells to the widest
    width = max((len(rs.radii) for rs in radii), default=0)
    columns = _coordinates(f.dimension) + ["Mf", "r_best_count"]
    columns += [f"r_best_{j + 1}" for j in range(width)]
    rows = ([*p, v, len(rs.radii), *rs.radii] + [""] * (width - len(rs.radii))
            for p, v, rs in zip(pts, values, radii))
    _write_csv(o["out"], cfg, columns, rows)
    print(f"wrote {pts.shape[0]} rows to {o['out']}")
    return 0


def cmd_dirderiv(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    theta = _parse_point(o["theta"])
    for flag, key, default in (("--lambda", "lam", 0.0), ("--r-max", "r_max", None)):
        if o["of"] == "function" and o[key] != default:
            raise SpecParseError(f"{flag} applies only with --of maximal")
    if o["of"] == "maximal":
        val = maxop.maximal_directional_derivative(
            f, x, theta, lam=o["lam"], r_max=o["r_max"]
        )
    else:
        val = nonsmooth.directional_derivative(f, x, theta)
    _write_json(o["out"], cfg, {"derivative": val})
    return 0


def cmd_tau(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    W = _parse_subspace(o["subspace"], f.dimension)
    est = nonsmooth.tau(f, x, W, n_dir=o["n_dir"], seed=o["seed"])
    _write_json(
        o["out"],
        cfg,
        {
            "tau": est.value,
            "ladder": [list(r) for r in est.ladder],
            "directions": est.direction_count,
        },
    )
    return 0


def cmd_gamma(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    est = nonsmooth.gamma(f, x, tol=o["tol"])
    _write_json(
        o["out"],
        cfg,
        {
            "gamma": est.degree,
            "witness_basis": [list(c) for c in est.witness.basis.T],
            "worst_residual": est.worst_residual,
        },
    )
    return 0


def cmd_singular_set(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    lo, hi = _parse_box(o["box"], f.dimension, o["res"])
    pts = nonsmooth.singular_scan(
        f,
        (lo, hi),
        o["res"],
        tol=o["tol"],
        annotate_gamma=not o["no_gamma"],
    )
    columns = _coordinates(f.dimension) + ["tau", "gamma", "sf_flag"]
    rows = ([*p.point, p.tau, p.gamma, p.sf_flag] for p in pts)
    _write_csv(o["out"], cfg, columns, rows)
    print(f"flagged {len(pts)} grid points -> {o['out']}")
    return 0


def cmd_medial_axis(cfg: ExperimentConfig) -> int:
    o = cfg.options
    A = _load_set(o)
    lo, hi = _parse_box(o["box"], A.dimension, o["res"])
    scan = specials.medial_scan(A, (lo, hi), o["res"])
    columns = _coordinates(A.dimension) + ["dist", "multiplicity"]
    rows = ([*x, d, m] for x, d, m in zip(scan.points, scan.distance, scan.multiplicity))
    _write_csv(o["out"], cfg, columns, rows)
    axis = np.count_nonzero(scan.multiplicity >= 2)
    print(f"{axis} medial points among {len(scan)} -> {o['out']}")
    return 0


def cmd_infconv(cfg: ExperimentConfig) -> int:
    o = cfg.options
    u = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    lo, hi = _parse_box(o["y_box"], u.dimension, o["y_res"])
    t = o["t"]
    if not 0.0 < t < math.inf:
        raise ValueError(f"--t must be finite and > 0, got {t}")
    coupling = lambda xx, yy: float(np.sum((xx - yy) ** 2)) / (2.0 * t)  # noqa: E731
    value, mins, boundary = specials.inf_convolution(
        u, coupling, x, (lo, hi), y_resolution=o["y_res"], strict=o["strict"]
    )
    _write_json(
        o["out"],
        cfg,
        {
            "value": value,
            "minimizers": [list(m) for m in mins],
            "boundary_attained": boundary,
        },
    )
    return 0


def cmd_tangency(cfg: ExperimentConfig) -> int:
    o = cfg.options
    if o["bases"] < 1:
        raise ValueError(f"--bases must be >= 1, got {o['bases']}")
    points = tangency.load_point_cloud(o["points"])
    k = o["k"]
    payload: Dict[str, object] = {}
    if o["sigma"]:
        ok, pieces, reports = tangency.sigma_decompose(
            points, k, pieces=o["pieces"], eta=o["eta"], seed=o["seed"]
        )
        payload["sigma"] = {
            "pass": ok,
            "pieces": [
                {
                    "size": int(p.indices.size),
                    "bases_tested": p.bases_tested,
                    "bases_passed": p.bases_passed,
                }
                for p in pieces
            ],
        }
    else:
        rng = np.random.default_rng(o["seed"])
        nb = min(o["bases"], points.shape[0])
        idx = rng.choice(points.shape[0], size=nb, replace=False)
        reports = tangency.base_reports(points, k, sorted(idx), eta=o["eta"])
    payload["reports"] = [r.to_json_dict() for r in reports]
    _write_json(o["out"], cfg, payload)
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    names = list(SUITES) if cfg.options["suite"] == "all" else [cfg.options["suite"]]
    all_ok = True
    for name in names:
        ok, lines = SUITES[name](cfg.options["seed"])
        print(f"suite {name}:")
        for ln in lines:
            print("  " + ln)
        all_ok &= ok
    print("VERIFY " + ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tangentia",
        description="numerical first-order calculus for nonsmooth functions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, function=True, seed=False):
        if function:
            sp.add_argument("--function", required=True,
                            help="function spec, e.g. tent, abs, gauss(0.5,2), grid:f.csv")
        if seed:  # only the commands that sample take a seed
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None,
                        help="JSON file whose entries override flags")
        sp.set_defaults(_parser=sp)

    sp = sub.add_parser("maximal-field", help="maximal-operator values on a grid")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--box", required=True, help="lo,hi or lo1,hi1;lo2,hi2")
    sp.add_argument("--res", type=_node_counts, default=128)
    sp.add_argument("--r-max", dest="r_max", type=float, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_maximal_field)

    sp = sub.add_parser("dirderiv", help="one-sided directional derivative")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--of", choices=["function", "maximal"], default="function")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--r-max", dest="r_max", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dirderiv)

    sp = sub.add_parser("tau", help="non-differentiability residual over a subspace")
    common(sp, seed=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--subspace", default="full",
                    help="full | V=[v1;v2] and/or ray=[b], e.g. 'V=[0,1];ray=[1,0]'")
    sp.add_argument("--n-dir", dest="n_dir", type=int, default=32)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_tau)

    sp = sub.add_parser("gamma", help="maximal differentiability degree")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("singular-set", help="grid scan for non-differentiability")
    common(sp)
    sp.add_argument("--box", required=True)
    sp.add_argument("--res", type=_node_counts, default=64)
    sp.add_argument("--tol", type=float, default=1e-3)
    sp.add_argument("--no-gamma", dest="no_gamma", action="store_true")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_singular_set)

    sp = sub.add_parser("medial-axis", help="nearest-point multiplicity scan")
    common(sp, function=False)
    sp.add_argument("--set-points", dest="set_points", default=None,
                    help="x,y;x,y;... finite set")
    sp.add_argument("--set-polygon", dest="set_polygon", default=None,
                    help="JSON file with a closed vertex loop")
    sp.add_argument("--box", required=True)
    sp.add_argument("--res", type=_node_counts, default=128)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_medial_axis)

    sp = sub.add_parser("infconv", help="infimal convolution with quadratic coupling")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--y-box", dest="y_box", required=True)
    sp.add_argument("--y-res", dest="y_res", type=_node_counts, default=257)
    sp.add_argument("--t", type=float, default=1.0, help="coupling |x-y|^2/(2t)")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_infconv)

    sp = sub.add_parser("tangency", help="k-tangentiality reports for a point cloud")
    common(sp, function=False, seed=True)
    sp.add_argument("--points", required=True, help="CSV cloud, one point per row")
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--eta", type=float, default=0.2)
    sp.add_argument("--bases", type=int, default=16)
    sp.add_argument("--sigma", action="store_true",
                    help="decompose into tangential pieces first")
    sp.add_argument("--pieces", type=int, default=8)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_tangency)

    sp = sub.add_parser("verify", help="run a named acceptance suite")
    common(sp, function=False, seed=True)
    sp.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    sp.set_defaults(func=cmd_verify)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TangentiaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
