"""Command-line driver.

One subcommand per capability (field sweeps, derivatives, the
non-differentiability measure and degree, singular and medial scans,
infimal convolution, tangency reports) plus ``verify`` suites bundling
the acceptance experiments.  Runs are reproducible: identical argv and
seed produce byte-identical artifact bodies, and every output carries
the fully resolved configuration in a leading comment line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import funcspace, maxop, nonsmooth, semilinear, specials, tangency
from .errors import SpecParseError, TangentiaError

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
    opts = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "func", "config") and not k.startswith("_")
    }
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            override = json.load(fh)
        for k, v in override.items():
            opts[k.replace("-", "_")] = v
    return ExperimentConfig(args.command, opts)


def _thread_count(requested: int) -> int:
    cap = os.environ.get("TANGENTIA_THREADS")
    if cap:
        return max(1, min(int(requested), int(cap)))
    return max(1, int(requested))


def _prepend_config(path: str, cfg: ExperimentConfig):
    with open(path, "r", encoding="utf-8") as fh:
        body = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + cfg.to_json() + "\n" + body)


def _write_json(path: Optional[str], cfg: ExperimentConfig, payload: dict):
    doc = {"config": json.loads(cfg.to_json()), "result": payload}
    text = json.dumps(doc, indent=2, sort_keys=True)
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
        raise SpecParseError(f"bad point {s!r}: {exc}", 0)


def _parse_box(s: str, n: int):
    """``lo,hi`` (all axes) or ``lo1,hi1;lo2,hi2;...`` per axis."""
    pairs = [p for p in s.split(";") if p]
    vals = [_parse_point(p) for p in pairs]
    if any(v.size != 2 for v in vals):
        raise SpecParseError(f"box {s!r}: each axis needs lo,hi", 0)
    if len(vals) == 1 and n > 1:
        vals = vals * n
    if len(vals) != n:
        raise SpecParseError(f"box {s!r} has {len(vals)} axes, function has {n}", 0)
    lo = np.array([v[0] for v in vals])
    hi = np.array([v[1] for v in vals])
    if np.any(hi <= lo):
        raise SpecParseError(f"box {s!r}: hi must exceed lo", 0)
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
            f"subspace spec {s!r}: expected 'full', 'V=[...]' and/or 'ray=[...]'", 0
        )
    vecs = []
    if mv and mv.group(1).strip():
        vecs = [_parse_point(t) for t in mv.group(1).split(";") if t.strip()]
    rays = []
    if mr and mr.group(1).strip():
        rays = [_parse_point(t) for t in mr.group(1).split(";") if t.strip()]
    return semilinear.semilinear(n, vecs, rays)


def _load_set(opts) -> specials.ClosedSetModel:
    if opts.get("set_points"):
        pts = [_parse_point(p) for p in opts["set_points"].split(";") if p]
        return specials.ClosedSetModel.from_points(pts)
    if opts.get("set_polygon"):
        with open(opts["set_polygon"], "r", encoding="utf-8") as fh:
            verts = json.load(fh)
        return specials.ClosedSetModel.from_polygon(verts)
    raise SpecParseError("provide --set-points or --set-polygon", 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_maximal_field(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    lo, hi = _parse_box(o["box"], f.dimension)
    pts, values, radii = maxop.maximal_field(
        f,
        (lo, hi),
        o["res"],
        lam=o["lam"],
        r_max=o["r_max"],
        threads=_thread_count(o["threads"]),
    )
    maxop.field_to_csv(pts, values, radii, o["out"])
    _prepend_config(o["out"], cfg)
    print(f"wrote {pts.shape[0]} rows to {o['out']}")
    return 0


def cmd_dirderiv(cfg: ExperimentConfig) -> int:
    o = cfg.options
    f = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    theta = _parse_point(o["theta"])
    if o["of"] == "maximal":
        val = maxop.maximal_directional_derivative(f, x, theta, lam=o["lam"])
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
    lo, hi = _parse_box(o["box"], f.dimension)
    pts = nonsmooth.singular_scan(
        f,
        (lo, hi),
        o["res"],
        tol=o["tol"],
        annotate_gamma=not o["no_gamma"],
    )
    nonsmooth.scan_to_csv(pts, o["out"], f.dimension)
    _prepend_config(o["out"], cfg)
    print(f"flagged {len(pts)} grid points -> {o['out']}")
    return 0


def cmd_medial_axis(cfg: ExperimentConfig) -> int:
    o = cfg.options
    A = _load_set(o)
    lo, hi = _parse_box(o["box"], A.dimension)
    pts = specials.medial_scan(A, (lo, hi), o["res"])
    specials.medial_to_csv(pts, o["out"], A.dimension)
    _prepend_config(o["out"], cfg)
    axis = sum(1 for p in pts if p.multiplicity >= 2)
    print(f"{axis} medial points among {len(pts)} -> {o['out']}")
    return 0


def cmd_infconv(cfg: ExperimentConfig) -> int:
    o = cfg.options
    u = funcspace.parse_function_spec(o["function"])
    x = _parse_point(o["point"])
    lo, hi = _parse_box(o["y_box"], u.dimension)
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
        payload["reports"] = [r.to_json_dict() for r in reports]
    else:
        tangency._check_k(k, points.shape[1])
        rng = np.random.default_rng(o["seed"])
        nb = min(o["bases"], points.shape[0])
        idx = rng.choice(points.shape[0], size=nb, replace=False)
        reports = []
        for i in sorted(idx):
            x = points[i]
            try:
                V = tangency.fit_tangent(points, x, k)
            except ValueError:
                continue
            reports.append(tangency.is_k_tangential(points, x, V, eta=o["eta"]))
        payload["reports"] = [r.to_json_dict() for r in reports]
    _write_json(o["out"], cfg, payload)
    return 0


# ---------------------------------------------------------------------------
# verify suites


def _check(lines: List[str], label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    lines.append(f"[{tag}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def _tent_primitive(t: float) -> float:
    """Antiderivative of max(0, 1-|x|) with value 0 at 0 (odd)."""
    s = -1.0 if t < 0 else 1.0
    a = abs(t)
    v = a - 0.5 * a * a if a <= 1.0 else 0.5
    return s * v


def _tent_average(x: float, r: float) -> float:
    if r == 0.0:
        return max(0.0, 1.0 - abs(x))
    return (_tent_primitive(x + r) - _tent_primitive(x - r)) / (2.0 * r)


def _brute_tent_maximal(x: float, lam: float = 0.0) -> float:
    """Independent maximizer of the closed-form tent averages."""
    from scipy.optimize import minimize_scalar

    r_lo = max(lam, 1e-6)
    grid = np.geomspace(r_lo, 40.0, 4096)
    vals = np.array([_tent_average(x, r) for r in grid])
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda r: -_tent_average(x, max(r, r_lo)),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    best = max(-res.fun, float(vals[i]))
    if lam == 0.0:
        best = max(best, _tent_average(x, 0.0))
    return float(best)


def suite_envelope(seed: int = 0) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    tent = funcspace.parse_function_spec("tent")
    target = (3.0 - math.sqrt(7.0)) / 2.0

    v, rset = maxop.maximal(tent, [2.0])
    ok &= _check(lines, "maximal value at x=2 matches (3-sqrt 7)/2",
                 abs(v - target) < 1e-6, f"|err|={abs(v - target):.2e}")
    fin = rset.finite()
    ok &= _check(lines, "best radius at x=2 is sqrt 7",
                 len(fin) == 1 and abs(fin[0] - math.sqrt(7.0)) < 1e-4,
                 f"radii={fin}")
    ok &= _check(lines, "brute-force search agrees at x=2",
                 abs(v - _brute_tent_maximal(2.0)) < 1e-6)

    h = 1e-4
    worst_v, worst_d = 0.0, 0.0
    for x in np.linspace(1.2, 3.0, 50):
        vx, _ = maxop.maximal(tent, [x])
        worst_v = max(worst_v, abs(vx - _brute_tent_maximal(float(x))))
        d = maxop.maximal_directional_derivative(tent, [x], [1.0])
        fd = (_brute_tent_maximal(float(x) + h) - _brute_tent_maximal(float(x) - h)) / (2 * h)
        worst_d = max(worst_d, abs(d - fd))
    ok &= _check(lines, "value vs brute force on 50 probes in [1.2,3]",
                 worst_v < 1e-6, f"worst {worst_v:.2e}")
    ok &= _check(lines, "envelope derivative vs central differences on 50 probes",
                 worst_d < 1e-3, f"worst {worst_d:.2e}")

    v1, r1 = maxop.maximal(tent, [0.0], lam=1.0)
    ok &= _check(lines, "restricted operator at lambda=1, x=0 equals 1/2",
                 abs(v1 - 0.5) < 1e-6 and len(r1.finite()) == 1
                 and abs(r1.finite()[0] - 1.0) < 1e-4,
                 f"value={v1:.8f}, radii={r1.finite()}")
    dplus = maxop.maximal_directional_derivative(tent, [0.0], [1.0], lam=1.0)
    dminus = maxop.maximal_directional_derivative(tent, [0.0], [-1.0], lam=1.0)
    ok &= _check(lines, "restricted derivative vanishes at the symmetric point",
                 abs(dplus) < 1e-4 and abs(dminus) < 1e-4,
                 f"{dplus:.2e}, {dminus:.2e}")
    return ok, lines


def _random_maxaffine(rng, pieces: int = 3):
    a = rng.uniform(-2.0, 2.0, size=(pieces, 2))
    c = rng.uniform(-1.0, 1.0, size=pieces)
    return funcspace.make_maxaffine(a, c), a, c


def _edge_distance(p, a, c) -> float:
    """Distance from p to the active pairwise-equality locus."""
    vals = a @ p + c
    top = np.max(vals)
    best = math.inf
    k = a.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            da = a[i] - a[j]
            nrm = np.linalg.norm(da)
            if nrm < 1e-12:
                continue
            gap = abs(float(da @ p) + (c[i] - c[j])) / nrm
            # project onto the equality line and require joint maximality
            q = p - ((float(da @ p) + (c[i] - c[j])) / nrm**2) * da
            vq = a @ q + c
            if vq[i] < np.max(vq) - 1e-9 * (1.0 + abs(top)):
                continue
            best = min(best, gap)
    return best


def suite_tangential(seed: int = 0, trials: int = 3, res: int = 64) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    rng = np.random.default_rng(seed)
    cell = 2.0 / (res - 1)
    for t in range(trials):
        f, a, c = _random_maxaffine(rng)
        flagged = nonsmooth.singular_scan(
            f, ([-1.0, -1.0], [1.0, 1.0]), res, annotate_gamma=False
        )
        pts = np.array([p.point for p in flagged])
        if pts.size == 0:
            ok &= _check(lines, f"trial {t}: arrangement edges detected", False,
                         "no flags")
            continue
        dists = np.array([_edge_distance(p, a, c) for p in pts])
        ok &= _check(
            lines,
            f"trial {t}: every flag within half a cell of an exact edge",
            bool(np.all(dists <= 0.5 * cell * math.sqrt(2) + 1e-9)),
            f"worst {np.max(dists):.3e}, cell {cell:.3e}",
        )
        passed, pieces, _ = tangency.sigma_decompose(pts, 1, pieces=3, seed=seed)
        ok &= _check(
            lines,
            f"trial {t}: kink set splits into <= 3 tangential pieces",
            passed and len(pieces) <= 3,
            f"{len(pieces)} pieces",
        )
    return ok, lines


def suite_singular(seed: int = 0) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    brute = funcspace.DirectionalFunction(
        evaluator=lambda p: _brute_tent_maximal(float(p[0])),
        dimension=1,
        label="brute-tent-maximal",
    )
    rng = np.random.default_rng(seed)
    probes = rng.uniform(-3.0, 3.0, size=64)
    worst = 0.0
    for x in probes:
        q = nonsmooth.quotient_ladder(brute, [x], [1.0])
        q2 = nonsmooth.quotient_ladder(brute, [x], [-1.0])
        worst = max(worst, float(np.max(np.abs(q))), float(np.max(np.abs(q2))))
    ok &= _check(lines, "difference-quotient ladders bounded at 64 probes",
                 worst < 100.0, f"max |quotient| {worst:.3f}")
    flags = nonsmooth.singular_scan(
        brute, ([-3.0], [3.0]), 64, annotate_gamma=False
    )
    n_sf = sum(1 for p in flags if p.sf_flag)
    ok &= _check(lines, "no unbounded-quotient flags on the maximal field",
                 n_sf == 0, f"{n_sf} flags")
    return ok, lines


def suite_translation(seed: int = 0, trials: int = 30) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    sq = funcspace.DirectionalFunction(
        evaluator=lambda p: float(p[0]) ** 2, dimension=1, label="square"
    )
    worst = 0.0
    for x, hh, r in [(0.5, 0.1, 1.0), (-1.0, 0.05, 0.5), (2.0, 0.2, 2.0)]:
        lhs = abs(
            funcspace.ball_average(sq, [x + hh], r)
            - funcspace.ball_average(sq, [x], r)
            - 2.0 * x * hh
        )
        worst = max(worst, abs(lhs - hh * hh))
        rep = maxop.check_translation_bound(
            sq, [x], [hh], r, [2.0 * x], u_sup=r + abs(hh)
        )
        ok &= rep.passed
    ok &= _check(lines, "quadratic remainder equals h^2 under quadrature",
                 worst < 1e-8, f"worst {worst:.2e}")

    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        Q = rng.uniform(-1.0, 1.0, size=(2, 2))
        Q = 0.5 * (Q + Q.T)
        b = rng.uniform(-1.0, 1.0, size=2)
        f = funcspace.DirectionalFunction(
            evaluator=lambda p, Q=Q, b=b: float(p @ Q @ p + b @ p),
            dimension=2,
            label="quadratic-form",
        )
        x = rng.uniform(-1.0, 1.0, size=2)
        h = rng.uniform(-0.2, 0.2, size=2)
        r = rng.uniform(0.3, 1.5)
        u_sup = float(np.linalg.norm(Q, 2)) * (r + float(np.linalg.norm(h)))
        rep = maxop.check_translation_bound(
            f, x, h, r, 2.0 * Q @ x + b, u_sup=u_sup
        )
        failures += 0 if rep.passed else 1
    ok &= _check(lines, f"translation bound holds on {trials} random quadratics",
                 failures == 0, f"{failures} failures")
    return ok, lines


def suite_distance(seed: int = 0, trials: int = 200, res: int = 128) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < trials:
        pts = rng.uniform(-1.0, 1.0, size=(5, 2))
        A = specials.ClosedSetModel.from_points(pts)
        x = rng.uniform(-1.5, 1.5, size=2)
        d = np.sort(np.linalg.norm(pts - x[None, :], axis=1))
        if d[0] < 0.1 or (1e-7 < d[1] - d[0] < 1e-2):
            continue  # too close to the set / near-tie ambiguous for FD
        theta = rng.standard_normal(2)
        theta /= np.linalg.norm(theta)
        g = specials.distance_function(A)
        fd = (g(x + h * theta) - g(x)) / h
        formula = specials.distance_directional_derivative(A, x, theta)
        worst = max(worst, abs(formula - fd))
        done += 1
    ok &= _check(lines, f"derivative formula vs one-sided FD on {trials} instances",
                 worst < 1e-3, f"worst {worst:.2e}")

    square = specials.ClosedSetModel.from_polygon(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    cell = 0.9 / (res - 1)
    scan = specials.medial_scan(square, ([0.05, 0.05], [0.95, 0.95]), res)
    axis = [p for p in scan if p.multiplicity >= 2]
    off = 0.0
    for p in axis:
        x, y = p.point
        off = max(off, min(abs(x - y), abs(x + y - 1.0)) / math.sqrt(2.0))
    ok &= _check(lines, "square medial axis sits on the diagonals",
                 len(axis) > 0 and off <= 0.5 * cell + 1e-12,
                 f"{len(axis)} points, worst offset {off:.3e}, cell {cell:.3e}")
    d_c, near_c = specials.nearest_set(square, [0.5, 0.5])
    ok &= _check(lines, "exact center is equidistant from all four edges",
                 abs(d_c - 0.5) < 1e-12 and len(near_c) == 4,
                 f"d={d_c}, {len(near_c)} nearest points")

    two = specials.ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    scan2 = specials.medial_scan(two, ([-0.9, -0.9], [0.9, 0.9]), 65)
    cell2 = 1.8 / 64
    axis2 = [p for p in scan2 if p.multiplicity >= 2]
    ok &= _check(
        lines,
        "two-point bisector detected along the vertical axis",
        len(axis2) >= 32 and all(abs(p.point[0]) <= cell2 for p in axis2),
        f"{len(axis2)} points",
    )
    return ok, lines


SUITES: Dict[str, Callable[[int], Tuple[bool, List[str]]]] = {
    "envelope": suite_envelope,
    "tangential-thm26": suite_tangential,
    "singular-thm35": suite_singular,
    "translation-lemma34": suite_translation,
    "distance-eq21": suite_distance,
}


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

    def common(sp, function=True):
        if function:
            sp.add_argument("--function", required=True,
                            help="function spec, e.g. tent, abs, gauss(0.5,2), grid:f.csv")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", default=None,
                        help="JSON file whose entries override flags")

    sp = sub.add_parser("maximal-field", help="maximal-operator values on a grid")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--box", required=True, help="lo,hi or lo1,hi1;lo2,hi2")
    sp.add_argument("--res", type=int, default=128)
    sp.add_argument("--r-max", dest="r_max", type=float, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_maximal_field)

    sp = sub.add_parser("dirderiv", help="one-sided directional derivative")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--theta", required=True)
    sp.add_argument("--of", choices=["function", "maximal"], default="function")
    sp.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_dirderiv)

    sp = sub.add_parser("tau", help="non-differentiability residual over a subspace")
    common(sp)
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
    sp.add_argument("--res", type=int, default=64)
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
    sp.add_argument("--res", type=int, default=128)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_medial_axis)

    sp = sub.add_parser("infconv", help="infimal convolution with quadratic coupling")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--y-box", dest="y_box", required=True)
    sp.add_argument("--y-res", dest="y_res", type=int, default=257)
    sp.add_argument("--t", type=float, default=1.0, help="coupling |x-y|^2/(2t)")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_infconv)

    sp = sub.add_parser("tangency", help="k-tangentiality reports for a point cloud")
    common(sp, function=False)
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
    common(sp, function=False)
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
