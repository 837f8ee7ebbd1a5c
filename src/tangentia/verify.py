"""Acceptance suites behind ``tangentia verify``: each checks one result of the
paper against oracles that share no code path with the library, and returns its
verdict with one ``[PASS]``/``[FAIL]`` line per check."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import funcspace, maxop, nonsmooth, specials, tangency

__all__ = ["SUITES", "tent_maximal"]


def _check(lines: List[str], label: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    lines.append(f"[{tag}] {label}" + (f" ({detail})" if detail else ""))
    return ok


def tent_maximal(x: float) -> float:
    """M tent(x) in closed form.  Between the breakpoints r = |x - k| of the
    kinks k, the integral q(r) of the tent over [x - r, x + r] is a quadratic
    a r^2 + b r + c: 2a is the tent's slope at x + r less its slope at x - r,
    and c = q - r q' + a r^2.  So the average q / 2r peaks at a breakpoint or
    where a r^2 = c; past the last breakpoint it falls."""

    def tent(t):
        return max(0.0, 1.0 - abs(t))

    def slope(t):
        return 0.0 if abs(t) >= 1.0 else -math.copysign(1.0, t)

    def primitive(t):
        s = min(abs(t), 1.0)
        return math.copysign(s - 0.5 * s * s, t)

    def q(r):
        return primitive(x + r) - primitive(x - r)

    ends = sorted({0.0} | {abs(x - k) for k in (-1.0, 0.0, 1.0)})
    radii = ends[1:]
    for lo, hi in zip(ends, ends[1:]):
        r = 0.5 * (lo + hi)
        a = 0.5 * (slope(x + r) - slope(x - r))
        c = q(r) - r * (tent(x + r) + tent(x - r)) + a * r * r
        if a != 0.0 and lo * lo < c / a < hi * hi:
            radii.append(math.sqrt(c / a))
    return max([tent(x)] + [q(r) / (2.0 * r) for r in radii])


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
    ok &= _check(lines, "closed form agrees at x=2",
                 abs(v - tent_maximal(2.0)) < 1e-6)

    h = 1e-4
    worst_v, worst_d = 0.0, 0.0
    for x in np.linspace(1.2, 3.0, 50):
        vx, _ = maxop.maximal(tent, [x])
        worst_v = max(worst_v, abs(vx - tent_maximal(float(x))))
        d = maxop.maximal_directional_derivative(tent, [x], [1.0])
        fd = (tent_maximal(float(x) + h) - tent_maximal(float(x) - h)) / (2 * h)
        worst_d = max(worst_d, abs(d - fd))
    ok &= _check(lines, "value vs closed form on 50 probes in [1.2,3]",
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


def _edge_distance(p, a, c) -> float:
    """Distance from p to the active pairwise-equality locus."""
    top = np.max(a @ p + c)
    best = math.inf
    for i, j in itertools.combinations(range(a.shape[0]), 2):
        da = a[i] - a[j]
        nrm = np.linalg.norm(da)
        if nrm < 1e-12:
            continue
        e = float(da @ p) + (c[i] - c[j])
        # project onto the equality line and require joint maximality
        vq = a @ (p - (e / nrm**2) * da) + c
        if vq[i] >= np.max(vq) - 1e-9 * (1.0 + abs(top)):
            best = min(best, abs(e) / nrm)
    return best


def suite_tangential(seed: int = 0) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    rng = np.random.default_rng(seed)
    res = 64
    cell = 2.0 / (res - 1)
    for t in range(3):
        a = rng.uniform(-2.0, 2.0, size=(3, 2))
        c = rng.uniform(-1.0, 1.0, size=3)
        f = funcspace.make_maxaffine(a, c)
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
    exact = funcspace.DirectionalFunction(
        evaluator=lambda p: tent_maximal(float(p[0])), dimension=1, label="tent-maximal"
    )
    rng = np.random.default_rng(seed)
    probes = rng.uniform(-3.0, 3.0, size=64)
    worst = 0.0
    for x in probes:
        q = nonsmooth.quotient_ladder(exact, [x], [1.0])
        q2 = nonsmooth.quotient_ladder(exact, [x], [-1.0])
        worst = max(worst, float(np.max(np.abs(q))), float(np.max(np.abs(q2))))
    ok &= _check(lines, "difference-quotient ladders bounded at 64 probes",
                 worst < 100.0, f"max |quotient| {worst:.3f}")
    flags = nonsmooth.singular_scan(exact, ([-3.0], [3.0]), 64, annotate_gamma=False)
    n_sf = sum(1 for p in flags if p.sf_flag)
    ok &= _check(lines, "no unbounded-quotient flags on the maximal field",
                 n_sf == 0, f"{n_sf} flags")
    return ok, lines


def suite_translation(seed: int = 0) -> Tuple[bool, List[str]]:
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
    for _ in range(30):
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
    ok &= _check(lines, "translation bound holds on 30 random quadratics",
                 failures == 0, f"{failures} failures")
    return ok, lines


def suite_distance(seed: int = 0) -> Tuple[bool, List[str]]:
    lines: List[str] = []
    ok = True
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < 200:
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
    ok &= _check(lines, "derivative formula vs one-sided FD on 200 instances",
                 worst < 1e-3, f"worst {worst:.2e}")

    square = specials.ClosedSetModel.from_polygon(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    res = 128
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
