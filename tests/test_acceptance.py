"""End-to-end acceptance battery.

Each test covers one numbered criterion, prints a single pass/fail line
(visible with ``pytest -s``), checks the stated tolerance against an
oracle computed independently of the library code under test, and
enforces the runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from tangentia import nonsmooth, specials, tangency, verify
from tangentia.funcspace import (
    DirectionalFunction,
    ball_average,
    make_maxaffine,
    parse_function_spec,
)
from tangentia.maxop import (
    check_translation_bound,
    maximal,
    maximal_directional_derivative,
)
from tangentia.semilinear import (
    full_space,
    halfspace,
    hc_distance,
    linear_subspace,
    ray_space,
)

SQRT7 = math.sqrt(7.0)


def report(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{tag}] {label}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {num}: {label} ({detail})"


# ---------------------------------------------------------------------------
# independent tent-maximal oracle (closed-form antiderivative, dense search)


def tent_primitive(t):
    s = -1.0 if t < 0 else 1.0
    a = abs(t)
    return s * (a - 0.5 * a * a if a <= 1.0 else 0.5)


def tent_average(x, r):
    if r == 0.0:
        return max(0.0, 1.0 - abs(x))
    return (tent_primitive(x + r) - tent_primitive(x - r)) / (2.0 * r)


def brute_tent_maximal(x, lam=0.0, return_radius=False):
    r_lo = max(lam, 1e-6)
    grid = np.geomspace(r_lo, 40.0, 4096)
    vals = np.array([tent_average(x, r) for r in grid])
    i = int(np.argmax(vals))
    res = minimize_scalar(
        lambda r: -tent_average(x, max(r, r_lo)),
        bounds=(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    best_r, best = float(res.x), float(-res.fun)
    if vals[i] > best:
        best_r, best = float(grid[i]), float(vals[i])
    if lam == 0.0 and tent_average(x, 0.0) > best:
        best_r, best = 0.0, tent_average(x, 0.0)
    return (best, best_r) if return_radius else best


# ---------------------------------------------------------------------------
# criteria 1-2: envelope formula and restricted operator


def test_criterion_01_envelope_formula():
    t0 = time.perf_counter()
    tent = parse_function_spec("tent")
    target = (3.0 - SQRT7) / 2.0

    v, rset = maximal(tent, [2.0])
    ok = abs(v - verify.tent_maximal(2.0)) < 1e-6 and abs(v - target) < 1e-6
    fin = rset.finite()
    ok &= len(fin) == 1 and abs(fin[0] - SQRT7) < 1e-4

    h = 1e-4
    probes = [float(x) for x in np.linspace(1.2, 3.0, 50)]
    worst_v = worst_d = 0.0
    for x in probes:
        vx, _ = maximal(tent, [x])
        worst_v = max(worst_v, abs(vx - verify.tent_maximal(x)))
        d = maximal_directional_derivative(tent, [x], [1.0])
        fd = (verify.tent_maximal(x + h) - verify.tent_maximal(x - h)) / (2.0 * h)
        worst_d = max(worst_d, abs(d - fd))
    # the closed form against the dense brute-force search at a few probes
    cross = max(abs(verify.tent_maximal(x) - brute_tent_maximal(x)) for x in probes[:6])
    ok &= worst_v < 1e-6 and worst_d < 1e-3 and cross <= 1e-9
    dt = time.perf_counter() - t0
    ok &= dt < 30.0
    report(
        1,
        "envelope formula on the tent (value, best radius, 50-probe derivative)",
        ok,
        f"value err {worst_v:.2e}, deriv err {worst_d:.2e}, "
        f"brute cross-check {cross:.1e}, {dt:.1f}s",
    )


def test_criterion_02_restricted_operator():
    t0 = time.perf_counter()
    tent = parse_function_spec("tent")
    v, rset = maximal(tent, [0.0], lam=1.0)
    fin = rset.finite()
    ok = abs(v - 0.5) < 1e-6 and len(fin) == 1 and abs(fin[0] - 1.0) < 1e-4
    h = 1e-4
    for th in (1.0, -1.0):
        d = maximal_directional_derivative(tent, [0.0], [th], lam=1.0)
        fd = (brute_tent_maximal(th * h, lam=1.0) - brute_tent_maximal(0.0, lam=1.0)) / h
        ok &= abs(d) < 1e-4 and abs(fd) < 1e-4
    dt = time.perf_counter() - t0
    ok &= dt < 5.0
    report(2, "restricted operator M_1 at the symmetric point", ok, f"{dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: tau ground truths


def test_criterion_03_tau_ground_truths():
    t0 = time.perf_counter()
    # oracle 1: slope grid for |x| on the line
    a_grid = np.arange(-3.0, 3.0 + 1e-12, 1e-3)
    oracle_1d = float(np.min(np.maximum(np.abs(1.0 - a_grid), np.abs(1.0 + a_grid))))
    absf = parse_function_spec("abs")
    t1 = nonsmooth.tau(absf, [0.0], full_space(1)).value
    ok = abs(t1 - oracle_1d) < 1e-3

    # oracle 2: (a, b) grid against 360 directions for the planar norm
    phi = 2.0 * math.pi * np.arange(360) / 360.0
    cs, sn = np.cos(phi), np.sin(phi)
    best = math.inf
    for a in np.linspace(-1.0, 1.0, 81):
        errs = np.abs(1.0 - a * cs - sn * np.linspace(-1.0, 1.0, 81)[:, None])
        best = min(best, float(np.min(np.max(errs, axis=1))))
    norm2 = DirectionalFunction(
        evaluator=lambda x: float(np.linalg.norm(x)),
        dimension=2,
        batch_evaluator=lambda p: np.linalg.norm(p, axis=1),
    )
    t2 = nonsmooth.tau(norm2, [0.0, 0.0], full_space(2)).value
    ok &= abs(t2 - best) < 1e-3 and abs(t2 - 1.0) < 1e-3

    # linear functions: tau < 1e-6 on 100 random (W, x)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a = rng.standard_normal(n)
        f = DirectionalFunction(
            evaluator=lambda x, a=a: float(a @ x),
            dimension=n,
            batch_evaluator=lambda p, a=a: p @ a,
        )
        x = rng.uniform(-1, 1, size=n)
        kind = int(rng.integers(0, 3))
        if kind == 0 or n == 1:
            W = full_space(n)
        elif kind == 1:
            W = linear_subspace(n, [rng.standard_normal(n)])
        else:
            W = ray_space(rng.standard_normal(n))
        worst = max(worst, nonsmooth.tau(f, x, W).value)
    ok &= worst < 1e-6
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(
        3,
        "tau ground truths (|x| on R and R^2, linear battery)",
        ok,
        f"tau_1d={t1:.6f}, tau_2d={t2:.6f}, linear worst {worst:.1e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: gamma ground truths


def test_criterion_04_gamma_ground_truths():
    t0 = time.perf_counter()
    f = parse_function_spec("maxaffine[(1,0,0),(-1,0,0)]")  # |x1| in R^2
    est = nonsmooth.gamma(f, [0.0, 0.5])
    v = est.witness.basis[:, 0]
    angle = math.acos(min(1.0, abs(float(v @ np.array([0.0, 1.0])))))
    ok = est.degree == 1 and angle < 1e-2

    rng = np.random.default_rng(1)
    bad = 0
    for _ in range(50):
        x = rng.uniform(-1, 1, size=2)
        if abs(x[0]) < 0.05:
            x[0] = 0.1 * np.sign(x[0] if x[0] != 0 else 1.0)
        if nonsmooth.gamma(f, x).degree != 2:
            bad += 1
    ok &= bad == 0

    corner = parse_function_spec("maxaffine[(1,0,0),(-1,0,0),(0,1,0),(0,-1,0)]")
    ok &= nonsmooth.gamma(corner, [0.0, 0.0]).degree == 0
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    report(
        4,
        "gamma ground truths (axis witness, 50 off-axis, corner)",
        ok,
        f"witness angle {angle:.1e}, off-axis failures {bad}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: singular-set instrument


def edge_distance(p, a, c):
    """Distance from p to the active pairwise-equality locus (from coeffs)."""
    best = math.inf
    k = a.shape[0]
    top = float(np.max(a @ p + c))
    for i in range(k):
        for j in range(i + 1, k):
            da = a[i] - a[j]
            nrm = np.linalg.norm(da)
            if nrm < 1e-12:
                continue
            gap = abs(float(da @ p) + (c[i] - c[j])) / nrm
            q = p - ((float(da @ p) + (c[i] - c[j])) / nrm**2) * da
            vq = a @ q + c
            if vq[i] < np.max(vq) - 1e-9 * (1.0 + abs(top)):
                continue
            best = min(best, gap)
    return best


def test_criterion_05_singular_scan_and_sigma():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    res = 128
    cell = 2.0 / (res - 1)
    sigma_passes = 0
    flags_ok = True
    trials = 20
    for t in range(trials):
        a = rng.uniform(-2.0, 2.0, size=(3, 2))
        c = rng.uniform(-1.0, 1.0, size=3)
        f = make_maxaffine(a, c)
        flagged = nonsmooth.singular_scan(
            f, ([-1.0, -1.0], [1.0, 1.0]), res, annotate_gamma=False
        )
        pts = np.array([p.point for p in flagged])
        if pts.size == 0:
            flags_ok = False
            continue
        dists = np.array([edge_distance(p, a, c) for p in pts])
        # every flag within half a cell (diagonal metric), none beyond one cell
        if np.max(dists) > 0.5 * cell * math.sqrt(2.0) + 1e-9:
            flags_ok = False
        if np.any(dists > cell):
            flags_ok = False
        passed, pieces, _ = tangency.sigma_decompose(pts, 1, pieces=3, seed=0)
        if passed and len(pieces) <= 3:
            sigma_passes += 1
    ok = flags_ok and sigma_passes >= 19
    dt = time.perf_counter() - t0
    ok &= dt < 600.0
    report(
        5,
        "kink scans of 20 random max-affine functions + sigma decomposition",
        ok,
        f"sigma passes {sigma_passes}/20, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: distance functions


def test_criterion_06_distance_functions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    h = 1e-5
    worst = 0.0
    done = 0
    while done < 200:
        pts = rng.uniform(-1.0, 1.0, size=(5, 2))
        A = specials.ClosedSetModel.from_points(pts)
        x = rng.uniform(-1.5, 1.5, size=2)
        d = np.sort(np.linalg.norm(pts - x[None, :], axis=1))
        if d[0] < 0.1 or (1e-7 < d[1] - d[0] < 1e-2):
            continue
        th = rng.standard_normal(2)
        th /= np.linalg.norm(th)
        g = specials.distance_function(A)
        fd = (g(x + h * th) - g(x)) / h
        formula = specials.distance_directional_derivative(A, x, th)
        worst = max(worst, abs(formula - fd))
        done += 1
    ok = worst < 1e-3

    square = specials.ClosedSetModel.from_polygon(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    )
    res = 128
    cell = 0.9 / (res - 1)
    scan = specials.medial_scan(square, ([0.05, 0.05], [0.95, 0.95]), res)
    axis = [p for p in scan if p.multiplicity >= 2]
    off = max(
        min(abs(x - y), abs(x + y - 1.0)) / math.sqrt(2.0)
        for x, y in (p.point for p in axis)
    )
    ok &= len(axis) > 0 and off <= 0.5 * cell + 1e-12

    two = specials.ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    scan2 = specials.medial_scan(two, ([-0.9, -0.9], [0.9, 0.9]), 65)
    cell2 = 1.8 / 64
    axis2 = [p for p in scan2 if p.multiplicity >= 2]
    ok &= len(axis2) >= 32 and all(abs(p.point[0]) <= cell2 for p in axis2)
    dt = time.perf_counter() - t0
    ok &= dt < 120.0
    report(
        6,
        "distance derivative formula, square medial axis, bisector",
        ok,
        f"FD err {worst:.2e}, axis offset {off:.2e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: translation bound


def test_criterion_07_translation_bound():
    t0 = time.perf_counter()
    sq = DirectionalFunction(evaluator=lambda p: float(p[0]) ** 2, dimension=1)
    worst = 0.0
    ok = True
    for x, h, r in [(0.0, 0.1, 0.5), (0.5, 0.05, 1.0), (-1.0, 0.2, 0.7)]:
        lhs = abs(
            ball_average(sq, [x + h], r) - ball_average(sq, [x], r) - 2.0 * x * h
        )
        worst = max(worst, abs(lhs - h * h))
        rep = check_translation_bound(sq, [x], [h], r, [2.0 * x], u_sup=r + h)
        ok &= rep.passed
    ok &= worst < 1e-8

    rng = np.random.default_rng(0)
    failures = 0
    for trial in range(100):
        n = 1 + trial % 3
        Q = rng.uniform(-1.0, 1.0, size=(n, n))
        Q = 0.5 * (Q + Q.T)
        b = rng.uniform(-1.0, 1.0, size=n)
        f = DirectionalFunction(
            evaluator=lambda p, Q=Q, b=b: float(p @ Q @ p + b @ p),
            dimension=n,
            batch_evaluator=lambda p, Q=Q, b=b: np.einsum("ij,jk,ik->i", p, Q, p)
            + p @ b,
        )
        x = rng.uniform(-1, 1, size=n)
        h = rng.uniform(-0.2, 0.2, size=n)
        r = rng.uniform(0.3, 1.5)
        u_sup = float(np.linalg.norm(Q, 2)) * (r + float(np.linalg.norm(h)))
        rep = check_translation_bound(f, x, h, r, 2.0 * Q @ x + b, u_sup=u_sup)
        failures += 0 if rep.passed else 1
    ok &= failures == 0
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(
        7,
        "translation bound (x^2 exact remainder + 100 random quadratics)",
        ok,
        f"remainder err {worst:.1e}, failures {failures}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: Lipschitz constants of the derivative machinery


def test_criterion_08_lipschitz_constants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # part 1: theta-Lipschitz with constant K over 10^3 random (x, th, th')
    a = rng.uniform(-2, 2, size=(3, 2))
    c = rng.uniform(-1, 1, size=3)
    F = make_maxaffine(a, c)
    K = F.lipschitz
    part1_fail = 0
    for _ in range(1000):
        x = rng.uniform(-1, 1, size=2)
        t1 = rng.standard_normal(2)
        t1 /= np.linalg.norm(t1)
        t2 = rng.standard_normal(2)
        t2 /= np.linalg.norm(t2)
        d1 = nonsmooth.directional_derivative(F, x, t1)
        d2 = nonsmooth.directional_derivative(F, x, t2)
        if abs(d1 - d2) > K * np.linalg.norm(t1 - t2) + 1e-6:
            part1_fail += 1

    # part 2: |tau(W) - tau(W')| <= 5K hc(W, W') + estimator tolerance.
    # The tolerance 5e-3 was calibrated once against this battery (the
    # measured excess was always negative); it covers direction-sampling
    # differences between the two subspaces.
    est_tol = 5e-3
    part2_fail = 0
    for trial in range(200):
        a = rng.uniform(-2, 2, size=(3, 2))
        c = rng.uniform(-1, 1, size=3)
        f = make_maxaffine(a, c)
        K2 = f.lipschitz
        x = rng.uniform(-1, 1, size=2)
        if trial % 2 == 0:
            da = a[0] - a[1]
            if np.linalg.norm(da) > 1e-9:
                x = x - ((da @ x + c[0] - c[1]) / (da @ da)) * da
                x = x + rng.normal(0, 1e-3, 2)
        ang = rng.uniform(0, 2 * math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        delta = rng.uniform(0.0, 0.3)
        R = np.array(
            [[math.cos(delta), -math.sin(delta)], [math.sin(delta), math.cos(delta)]]
        )
        kind = trial % 3
        if kind == 0:
            W1, W2 = linear_subspace(2, [u]), linear_subspace(2, [R @ u])
        elif kind == 1:
            W1, W2 = ray_space(u), ray_space(R @ u)
        else:
            b = np.array([-u[1], u[0]])
            W1 = halfspace(linear_subspace(2, [u]), b)
            W2 = halfspace(linear_subspace(2, [R @ u]), R @ b)
        lhs = abs(nonsmooth.tau(f, x, W1).value - nonsmooth.tau(f, x, W2).value)
        if lhs > 5.0 * K2 * hc_distance(W1, W2) + est_tol:
            part2_fail += 1

    ok = part1_fail == 0 and part2_fail == 0
    dt = time.perf_counter() - t0
    ok &= dt < 300.0
    report(
        8,
        "derivative theta-Lipschitz (K) and tau subspace-Lipschitz (5K hc)",
        ok,
        f"part1 fails {part1_fail}/1000, part2 fails {part2_fail}/200, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: bounded quotients of the closed-form maximal field


def test_criterion_09_bounded_maximal_quotients():
    t0 = time.perf_counter()
    exact = DirectionalFunction(
        evaluator=lambda p: verify.tent_maximal(float(p[0])),
        dimension=1,
        label="tent-maximal",
    )
    rng = np.random.default_rng(0)
    probes = rng.uniform(-3.0, 3.0, size=64)
    worst = 0.0
    for x in probes:
        for th in (1.0, -1.0):
            q = nonsmooth.quotient_ladder(exact, [x], [th])
            worst = max(worst, float(np.max(np.abs(q))))
    # the closed form against the dense brute-force search at a few probes
    cross = max(abs(verify.tent_maximal(x) - brute_tent_maximal(x)) for x in probes[:6])
    ok = worst < 100.0 and cross <= 1e-9
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(
        9,
        "closed-form maximal field has bounded quotient ladders at 64 probes",
        ok,
        f"max |quotient| {worst:.2f}, brute cross-check {cross:.1e}, {dt:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: tangency discrimination


def test_criterion_10_tangency_discrimination():
    t0 = time.perf_counter()
    eta = 0.2
    errors = []

    t = np.linspace(-0.5, 0.5, 240)
    parabola = np.stack([t, t * t], axis=1)
    V = tangency.fit_tangent(parabola, np.zeros(2), 1)
    if tangency.is_k_tangential(parabola, np.zeros(2), V, eta=eta).verdict != "tangential":
        errors.append("parabola")

    ang = np.linspace(-math.pi / 2, 3 * math.pi / 2, 1200, endpoint=False)
    circle = np.stack([np.cos(ang), 1.0 + np.sin(ang)], axis=1)
    Vc = tangency.fit_tangent(circle, np.zeros(2), 1, radius=0.3)
    if tangency.is_k_tangential(circle, np.zeros(2), Vc, eta=eta).verdict != "tangential":
        errors.append("circle")

    t2 = np.linspace(-1.0, 1.0, 80)
    lines = np.vstack(
        [
            np.stack([t2, np.zeros_like(t2)], axis=1),
            np.stack([t2, t2], axis=1) / math.sqrt(2.0),
        ]
    )
    cands = [tangency.fit_tangent(lines, np.zeros(2), 1)]
    for a in np.linspace(0.0, math.pi, 13, endpoint=False):
        cands.append(np.array([[math.cos(a)], [math.sin(a)]]))
    if any(
        tangency.is_k_tangential(lines, np.zeros(2), W, eta=eta).verdict == "tangential"
        for W in cands
    ):
        errors.append("crossing-single-V")
    ok_sigma, pieces, _ = tangency.sigma_decompose(lines, 1, pieces=4, eta=eta)
    if not (ok_sigma and len(pieces) == 2):
        errors.append("crossing-sigma")

    rng = np.random.default_rng(3)
    disc = rng.uniform(-1, 1, size=(500, 2))
    disc = disc[np.linalg.norm(disc, axis=1) <= 1.0]
    ok_disc, _, _ = tangency.sigma_decompose(disc, 1, eta=eta)
    if ok_disc:
        errors.append("disc")

    ok = not errors
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(
        10,
        "tangency discrimination (parabola, circle, crossing lines, disc)",
        ok,
        f"misclassified: {errors or 'none'}, {dt:.1f}s",
    )
