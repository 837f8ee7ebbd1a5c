"""Reference values computed without tangentia.

Every function here derives its answer from a closed form or from a
reduction that shares no code path with the library: closed-form tent
averages, closed-form (erf) 1D Gaussian averages, the radial
(sphere-cap) reduction of 2D and 3D Gaussian ball averages, exact
max-affine arrangement edges, the square's diagonals, and the Huber
envelope.  numpy and scipy are used only as generic numerics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erf

_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(96)


# ---------------------------------------------------------------------------
# tent(y) = max(0, 1 - |y|)


def tent(y):
    return np.maximum(0.0, 1.0 - np.abs(y))


def tent_primitive(t):
    """Odd antiderivative of the tent, 0 at 0 and +-1/2 beyond |t| = 1."""
    a = np.abs(t)
    return np.sign(t) * np.where(a <= 1.0, a - 0.5 * a * a, 0.5)


def tent_average(x, r):
    """Average of the tent over [x - r, x + r], r > 0 (broadcasts)."""
    return (tent_primitive(x + r) - tent_primitive(x - r)) / (2.0 * r)


def _polish(fn, grid, vals, i):
    """Bounded maximization of fn on the grid cell pair around index i."""
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(
        lambda r: -fn(r), bounds=(a, b), method="bounded",
        options={"xatol": 1e-13 * (1.0 + b)},
    )
    if -res.fun >= vals[i]:
        return float(res.x), float(-res.fun)
    return float(grid[i]), float(vals[i])


def tent_maximal(xs, r_hi: float = 100.0):
    """(values, best radii) of the centered maximal function of the tent.

    Dense geometric radius grid with a bounded polish at the grid best;
    the r = 0 candidate contributes tent(x), reported as radius 0.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    grid = np.geomspace(1e-6, r_hi, 8192)
    avgs = tent_average(xs[:, None], grid[None, :])
    values, radii = [], []
    for k, x in enumerate(xs):
        i = int(np.argmax(avgs[k]))
        r_star, v_star = _polish(lambda r: float(tent_average(x, r)), grid, avgs[k], i)
        t0 = float(tent(x))
        if t0 >= v_star:
            r_star, v_star = 0.0, t0
        values.append(v_star)
        radii.append(r_star)
    return np.array(values), np.array(radii)


def tent_maximal_derivative(x: float, theta: float) -> float:
    """One-sided derivative of M(tent) at x along theta (|theta| = 1).

    Valid where the best radius r* is unique and finite: by the
    envelope theorem it is theta times d/dx of the average at fixed r*,
    which is (tent(x + r*) - tent(x - r*)) / (2 r*).
    """
    _, (r_star,) = tent_maximal([x])
    if not r_star > 0.0:
        raise ValueError(f"best radius at {x} is not finite and positive")
    return theta * float(tent(x + r_star) - tent(x - r_star)) / (2.0 * r_star)


# ---------------------------------------------------------------------------
# gauss(s, n)(y) = exp(-|y|^2 / (2 s^2)), n = 1, 2 or 3


def _gl(a, b, fn):
    """Gauss-Legendre integral of fn over rows of [a, b] (arrays of equal shape)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    t = mid[:, None] + half[:, None] * _LEG_X[None, :]
    return half * (fn(t) @ _LEG_W)


def gauss_ball_average(rho: float, radii, s: float, n: int) -> np.ndarray:
    """Average of gauss(s) over B(x, r) for |x| = rho.

    In 1D the average is the closed form with erf.  In 2D and 3D it is
    a radial reduction: the ball is cut into spheres |y| = t about the
    origin.  Spheres with t <= r - rho lie inside the ball; for
    |r - rho| < t < r + rho the
    part inside is a cap of area pi t (r^2 - (t - rho)^2) / rho in 3D
    and an arc of length 2 t arccos((t^2 + rho^2 - r^2) / (2 t rho)) in
    2D.  The integrand vanishes below 1e-30 past t = 12 s, where the
    range is cut.  In 2D the arc has square-root ends, removed by the
    substitution t = mid - half cos(psi).
    """
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    if n == 1:
        c = s * math.sqrt(2.0)
        return s * math.sqrt(0.5 * math.pi) * (erf((rho + r) / c) - erf((rho - r) / c)) / (2.0 * r)
    t_cut = 12.0 * s
    g = lambda t: np.exp(-0.5 * t * t / (s * s))  # noqa: E731
    inner_hi = np.clip(r - rho, 0.0, t_cut)
    if n == 3:
        total = _gl(np.zeros_like(r), inner_hi, lambda t: 4.0 * math.pi * t * t * g(t))
        volume = 4.0 / 3.0 * math.pi * r**3
    elif n == 2:
        total = _gl(np.zeros_like(r), inner_hi, lambda t: 2.0 * math.pi * t * g(t))
        volume = math.pi * r**2
    else:
        raise ValueError("gauss oracle covers n = 1, 2, 3")
    if rho > 0.0:
        lo = np.abs(r - rho)
        hi = np.minimum(r + rho, t_cut)
        live = hi > lo
        a, b, rr = lo[live], hi[live], r[live]
        if n == 3:
            cap = lambda t: math.pi * t * (rr[:, None] ** 2 - (t - rho) ** 2) / rho * g(t)  # noqa: E731
            total[live] += _gl(a, b, cap)
        else:
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            psi = 0.5 * math.pi * (_LEG_X + 1.0)
            t = mid[:, None] - half[:, None] * np.cos(psi)[None, :]
            cosang = (t * t + rho * rho - rr[:, None] ** 2) / (2.0 * t * rho)
            arc = 2.0 * t * np.arccos(np.clip(cosang, -1.0, 1.0))
            jac = half[:, None] * np.sin(psi)[None, :] * 0.5 * math.pi
            total[live] += (arc * g(t) * jac) @ _LEG_W
    return total / volume


def gauss_maximal(rho: float, s: float, n: int, r_hi: float = 200.0):
    """(value, best radius) of M(gauss(s)) at distance rho from the origin.

    Radius 0 stands for the value gauss(rho) itself.
    """
    grid = np.geomspace(1e-4, r_hi, 4096)
    avgs = gauss_ball_average(rho, grid, s, n)
    i = int(np.argmax(avgs))
    r_star, v_star = _polish(
        lambda r: float(gauss_ball_average(rho, [r], s, n)[0]), grid, avgs, i
    )
    g0 = math.exp(-0.5 * rho * rho / (s * s))
    if g0 >= v_star:
        return g0, 0.0
    return v_star, r_star


# ---------------------------------------------------------------------------
# max-affine arrangements and the square


def edge_distance(p, a, c) -> float:
    """Distance from p to the set where two pieces of max_k(a_k.y + c_k) tie
    for the maximum (the arrangement's kink set), exactly.

    On the line where pieces i and j are equal, the points where they are
    also maximal form an interval in the line parameter; p is measured
    against that interval.
    """
    p = np.asarray(p, dtype=float)
    best = math.inf
    k = a.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            nvec = a[i] - a[j]
            nn = float(nvec @ nvec)
            if nn < 1e-24:
                continue
            q0 = -(c[i] - c[j]) * nvec / nn
            d = np.array([-nvec[1], nvec[0]])
            t_lo, t_hi = -math.inf, math.inf
            feasible = True
            for m in range(k):
                if m in (i, j):
                    continue
                # piece i >= piece m along q0 + t d:  alpha + beta t >= 0
                alpha = float((a[i] - a[m]) @ q0 + c[i] - c[m])
                beta = float((a[i] - a[m]) @ d)
                if abs(beta) < 1e-15:
                    if alpha < 0.0:
                        feasible = False
                elif beta > 0.0:
                    t_lo = max(t_lo, -alpha / beta)
                else:
                    t_hi = min(t_hi, -alpha / beta)
            if not feasible or t_lo > t_hi:
                continue
            t = float((p - q0) @ d) / float(d @ d)
            t = min(max(t, t_lo), t_hi)
            best = min(best, float(np.linalg.norm(p - (q0 + t * d))))
    return best


def square_diagonal_distance(p) -> float:
    """Distance from p to the medial axis of the unit square (its diagonals)."""
    x, y = float(p[0]), float(p[1])
    return min(abs(x - y), abs(x + y - 1.0)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# infconv(abs, t): the Huber envelope


def huber(x: float, t: float = 1.0):
    """(value, minimizer) of min_y |y| + (x - y)^2 / (2 t)."""
    ax = abs(x)
    if ax <= t:
        return 0.5 * x * x / t, 0.0
    return ax - 0.5 * t, x - math.copysign(t, x)
