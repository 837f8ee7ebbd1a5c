"""The centered maximal operator, its radius-restricted variant, best-radii
sets, and the envelope formula for its directional derivatives.

The radius search is a log-spaced grid with Brent's bounded-method
refinement on every bracketed local maximum: the objective r -> average
of |f| on B(x, r) is multimodal in general, so unimodal search alone is
unsound.
The grid averages are one cumulative shell profile
(``funcspace.ball_average_radii``): the ball rule at the first radius,
then a 4-node Gauss-Legendre integral over each annulus between grid
radii.  In 2D and 3D refinement extends that profile from the nearest
grid radius below, so it reproduces the grid values exactly and never
compares two rules.  In 1D refinement uses the adaptive
``funcspace.ball_average``: a 1D shell is two points, so a 4-node piece
is blind to a kink of f near its ends, while in 2D and 3D the direction
sum smooths kinks.
Radii 0 and infinity enter through the conventions value(0) = |f(x)| and
value(inf) = the flat tail of the averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import MaximalBlowupError
from .funcspace import (
    DirectionalFunction,
    _box_grid,
    _direction,
    _point,
    _profile_at,
    absolute,
    ball_average,
    ball_average_radii,
    sphere_average_derivative,
)
from .nonsmooth import directional_derivative, tau
from .semilinear import full_space

__all__ = [
    "RadiiSet",
    "EMPIRICAL_CONSTANTS",
    "maximal",
    "maximal_directional_derivative",
    "TranslationBoundReport",
    "check_translation_bound",
    "maximal_field",
    "field_to_csv",
]

# audit thresholds calibrated against the translation-bound suite; these are
# empirical stand-ins for the unspecified dimensional constants, not claims
EMPIRICAL_CONSTANTS = {1: 1.0, 2: 4.0, 3: 8.0}

_GRID_POINTS = 512  # log-spaced radii of the coarse search
_REL_TOL = 1e-8  # radii within this relative gap of the best are kept
_REFINE_TOL = 1e-10  # Brent bracket width (relative)
_R_MIN_FLOOR = 1e-3  # smallest radius searched when lambda is 0
_OVERFLOW_GUARD = 1e12  # ball averages above this mean M f is infinite
# the envelope formula at lambda = 0 needs tau below this at x
_DIFFERENTIABILITY_TOL = 1e-3


@dataclass(frozen=True)
class RadiiSet:
    """Maximizing radii for the restricted maximal operator at one point.

    ``radii`` may contain the markers 0.0 and math.inf per the value
    conventions; each finite entry reproduces the attained value within
    the refinement tolerance.
    """

    point: Tuple[float, ...]
    lam: float
    radii: Tuple[float, ...]
    value: float
    trace: dict = field(default_factory=dict)

    def finite(self) -> Tuple[float, ...]:
        return tuple(r for r in self.radii if r > 0.0 and math.isfinite(r))


def _brent_max(fn, a: float, b: float):
    """Maximize fn on the bracket [a, b]; returns (argmax, max).

    Brent's bounded minimizer on -fn; the objective is smooth inside a
    bracket, where parabolic steps beat pure golden sectioning.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda r: -fn(r),
        bounds=(a, b),
        method="bounded",
        options={"xatol": _REFINE_TOL * (1.0 + abs(a) + abs(b))},
    )
    r_star, v_star = float(res.x), float(-res.fun)
    # the bounded solver never evaluates the endpoints themselves
    for e in (a, b):
        ve = fn(e)
        if ve > v_star:
            r_star, v_star = e, ve
    return r_star, v_star


def _default_r_max(f: DirectionalFunction, x: np.ndarray) -> float:
    if f.support is not None:
        lo, hi = f.support
        diam = float(np.linalg.norm(hi - lo))
        center = 0.5 * (lo + hi)
        return 10.0 * (diam + float(np.linalg.norm(x - center)) + 1.0)
    return 50.0 * (1.0 + float(np.linalg.norm(x)))


def maximal(
    f: DirectionalFunction,
    x,
    lam: float = 0.0,
    r_max: Optional[float] = None,
) -> Tuple[float, RadiiSet]:
    """sup over r in [lam, r_max] of the average of |f| on B(x, r).

    Returns the value together with all maximizing radii (within the
    relative gap _REL_TOL of the best).  When lam = 0 the candidate r = 0
    contributes |f(x)|; a non-decaying tail at r_max adds the infinity
    marker.
    """
    if not f.continuous:
        raise ValueError("the maximal-operator pipeline requires continuous f")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    x = _point(x, f.dimension)
    absf = absolute(f)
    if r_max is None:
        r_max = _default_r_max(f, x)
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    if r_max <= max(lam, _R_MIN_FLOOR):
        raise ValueError("r_max must exceed the lower end of the search range")

    r_lo = max(lam, _R_MIN_FLOOR)
    grid = np.geomspace(r_lo, r_max, _GRID_POINTS)
    if lam > 0:
        grid[0] = lam
    avgs = ball_average_radii(absf, x, grid)
    if np.max(avgs) > _OVERFLOW_GUARD:
        raise MaximalBlowupError(
            f"ball averages exceed the overflow guard at x={tuple(x)}: "
            "the maximal function is infinite there"
        )

    candidates = []
    if lam == 0.0:
        candidates.append((0.0, abs(f(x))))

    spread = float(np.max(avgs) - np.min(avgs))
    scale = 1.0 + float(np.max(np.abs(avgs)))
    flat = spread < 1e-13 * scale
    if flat and lam == 0.0 and abs(abs(f(x)) - avgs[0]) < 1e-12 * scale:
        # constant averages at every radius: the whole range attains the sup
        value = abs(f(x))
        rset = RadiiSet(tuple(x), lam, (0.0, math.inf), value, {"flat": True})
        return value, rset

    if f.dimension == 1:
        fn = lambda r: ball_average(absf, x, r)  # noqa: E731
    else:
        # refine on the coarse stage's own shell profile: one rule throughout
        fn = lambda r: _profile_at(absf, x, grid, avgs, r)  # noqa: E731
    interior = np.flatnonzero(
        (avgs[1:-1] >= avgs[:-2]) & (avgs[1:-1] >= avgs[2:])
    ) + 1
    # skip local maxima far below the grid best (plateaus of a losing
    # branch); compress plateau runs into one bracket each
    margin = 0.02 * spread + 1e-12 * scale
    grid_best = float(np.max(avgs))
    interior = [i for i in interior if avgs[i] >= grid_best - margin]
    brackets = []
    run_start = None
    prev = None
    for i in interior:
        if run_start is None:
            run_start = prev = i
        elif i == prev + 1:
            prev = i
        else:
            brackets.append((grid[run_start - 1], grid[prev + 1]))
            run_start = prev = i
    if run_start is not None:
        brackets.append((grid[run_start - 1], grid[prev + 1]))
    if avgs[0] >= avgs[1] and avgs[0] >= grid_best - margin:
        brackets.append((grid[0], grid[1]))
    if avgs[-1] >= avgs[-2] and avgs[-1] >= grid_best - margin:
        brackets.append((grid[-2], grid[-1]))
    for a, b in brackets:
        r_star, v_star = _brent_max(fn, a, b)
        candidates.append((float(r_star), float(v_star)))

    best = max(v for _, v in candidates)
    keep = [
        (r, v)
        for r, v in candidates
        if v >= best - _REL_TOL * (1.0 + abs(best))
    ]
    # merge refinement duplicates
    keep.sort()
    merged = []
    for r, v in keep:
        if merged and r > 0 and merged[-1][0] > 0 and abs(r - merged[-1][0]) <= 1e-6 * (
            1.0 + r
        ):
            if v > merged[-1][1]:
                merged[-1] = (r, v)
        else:
            merged.append((r, v))

    radii = [r for r, _ in merged]
    tail_high = avgs[-1] >= best - _REL_TOL * (1.0 + abs(best))
    if tail_high and not flat:
        radii.append(math.inf)  # r_max was not large enough to separate the tail
    rset = RadiiSet(
        tuple(x),
        lam,
        tuple(radii),
        best,
        {"grid_best": float(np.max(avgs)), "tail_average": float(avgs[-1])},
    )
    return best, rset


def maximal_directional_derivative(
    f: DirectionalFunction,
    x,
    theta,
    lam: float = 0.0,
) -> float:
    """Envelope formula: sup over the best radii of the shell derivative.

    r = 0 contributes the one-sided derivative of |f| itself; r = inf
    contributes 0 (the point is then a global minimum of the maximal
    function).  At lam = 0 the formula is only claimed where f is
    differentiable, which is checked up front.
    """
    x = _point(x, f.dimension)
    unit = _direction(theta, f.dimension)
    absf = absolute(f)
    if lam == 0.0:
        t = tau(f, x, full_space(f.dimension), max(8, 2 * f.dimension))
        if t.value >= _DIFFERENTIABILITY_TOL:
            raise ValueError(
                f"envelope formula at lambda=0 needs f differentiable at "
                f"{tuple(x)}; residual {t.value:.3e} >= {_DIFFERENTIABILITY_TOL}"
            )
    _, rset = maximal(f, x, lam)
    contributions = []
    for r in rset.radii:
        if r == 0.0:
            contributions.append(directional_derivative(absf, x, unit))
        elif math.isinf(r):
            contributions.append(0.0)
        else:
            contributions.append(
                sphere_average_derivative(absf, x, r, theta)  # scales theta itself
            )
    return max(contributions)


# ---------------------------------------------------------------------------
# runtime checks backing the supporting lemmas


@dataclass(frozen=True)
class TranslationBoundReport:
    check: str
    lhs: float
    rhs: float
    ratio: float
    passed: bool

    def to_json_dict(self):
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "pass": self.passed,
        }


def check_translation_bound(
    f: DirectionalFunction,
    x,
    h,
    r: float,
    D,
    u_sup: float,
) -> TranslationBoundReport:
    """Shifted-ball average bound for f with expansion remainder u.

    lhs = |avg_{B(x+h,r)} f - avg_{B(x,r)} f - D.h| must stay below
    |h| * c_hat * u_sup, c_hat = EMPIRICAL_CONSTANTS[f.dimension].  u_sup is
    the caller's bound on |u| over |a| <= r + |h|.
    """
    x, h, D = (_point(v, f.dimension) for v in (x, h, D))
    c_hat = EMPIRICAL_CONSTANTS[f.dimension]
    lhs = abs(ball_average(f, x + h, r) - ball_average(f, x, r) - float(D @ h))
    nh = float(np.linalg.norm(h))
    rhs = nh * c_hat * u_sup
    if u_sup == 0.0:
        passed = lhs <= 1e-10
        ratio = math.inf if lhs > 1e-10 else 0.0
    else:
        ratio = lhs / (nh * u_sup) if nh > 0 else 0.0
        passed = lhs <= rhs + 1e-12
    return TranslationBoundReport("translation-bound", lhs, rhs, ratio, passed)


# ---------------------------------------------------------------------------
# field computation


def maximal_field(
    f: DirectionalFunction,
    box,
    resolution,
    lam: float = 0.0,
    r_max: Optional[float] = None,
    threads: int = 1,
):
    """(points, values, radii sets) of the operator over a grid, row-major."""
    pts, _ = _box_grid(box, resolution, f.dimension, 1)

    def work(p):
        return maximal(f, p, lam, r_max)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, pts))
    else:
        results = [work(p) for p in pts]
    values = np.array([v for v, _ in results])
    radii = [rs for _, rs in results]
    return pts, values, radii


def field_to_csv(pts, values, radii, path):
    n = pts.shape[1]
    cols = [f"x{i + 1}" for i in range(n)] + ["Mf", "r_best_count"]
    width = max(len(rs.radii) for rs in radii) if radii else 0
    cols += [f"r_best_{j + 1}" for j in range(width)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for p, v, rs in zip(pts, values, radii):
            row = [f"{c:.12g}" for c in p] + [f"{v:.12g}", str(len(rs.radii))]
            row += [f"{r:.12g}" for r in rs.radii]
            row += [""] * (width - len(rs.radii))
            fh.write(",".join(row) + "\n")
