"""The centered maximal operator, its radius-restricted variant, best-radii
sets, and the envelope formula for its directional derivatives.

The radius search is a log-spaced grid with Brent's bounded-method
refinement on every bracketed local maximum: the objective r -> average
of |f| on B(x, r) is multimodal in general, so unimodal search alone is
unsound.  The refinement is ``funcspace._bounded_min``, Brent's method
(Brent 1973; Forsythe, Malcolm and Moler's ``fmin``) in Python floats,
which probes the same radii in the same order as the usual library
implementation that its docstring names, so the radius search needs
nothing beyond numpy.
Each call builds one ``funcspace._ShellProfile`` on the grid: its table
is the grid averages, a 4-node Gauss-Legendre integral over the first
ball as an annulus from 0, then over each annulus between grid radii,
cut in 1D at the declared kinks of f.  A Brent probe extends that profile
from the nearest grid radius below with only its own annulus, so it
reproduces the grid values exactly and never compares two rules.
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
    _bounded_min,
    _box_grid,
    _box_text,
    _direction,
    _ShellProfile,
    _point,
    _radius_limit,
    absolute,
    ball_average,
    sphere_average_derivative,
)
from .nonsmooth import DEFAULT_LADDER, directional_derivative, tau
from .semilinear import full_space

__all__ = [
    "RadiiSet",
    "EMPIRICAL_CONSTANTS",
    "maximal",
    "maximal_directional_derivative",
    "TranslationBoundReport",
    "check_translation_bound",
    "maximal_field",
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

    Brent's bounded method (Brent 1973; Forsythe, Malcolm and Moler's
    ``fmin``) on -fn, in Python floats: ``funcspace._bounded_min``, which
    probes the radii, in order, and returns the argmax and max of the
    library implementation its docstring names, bit for bit.  The
    objective is smooth inside a bracket, where parabolic steps beat pure
    golden sectioning.
    """
    xatol = _REFINE_TOL * (1.0 + abs(a) + abs(b))
    r_star, v_neg = _bounded_min(lambda r: -fn(r), a, b, xatol)
    v_star = -v_neg
    # the bounded method never evaluates the endpoints themselves
    for e in (a, b):
        ve = fn(e)
        if ve > v_star:
            r_star, v_star = e, ve
    return r_star, v_star


def _default_r_max(f: DirectionalFunction, x: np.ndarray) -> float:
    """Ten times the support's diameter plus the distance of x from its
    center, else 50 (1 + |x|); inf where that overflows."""
    with np.errstate(over="ignore"):
        if f.support is not None:
            lo, hi = f.support
            center = 0.5 * (lo + hi)
            return 10.0 * (_norm(hi - lo) + _norm(x - center) + 1.0)
        return 50.0 * (1.0 + _norm(x))


def _norm(v: np.ndarray) -> float:
    """|v|: np.linalg.norm, whose bits the default radius grid keeps, or
    hypot where its sum of squares overflows."""
    r = float(np.linalg.norm(v))
    return r if math.isfinite(r) else math.hypot(*v)


def _check_reach(f: DirectionalFunction, points: np.ndarray, r_max):
    """Refuse, before any evaluation, a radius search whose balls about
    the (m, n) points leave the domain of f, naming the largest r_max that
    keeps every ball inside.  A function with a domain has no default
    r_max."""
    if f.domain is None:
        return
    lo, hi = f.domain
    box = _box_text(lo, hi)
    room = np.min(np.minimum(points - lo, hi - points), axis=1)
    if np.any(room <= 0.0):
        p = tuple(points[np.argmax(room <= 0.0)].tolist())
        raise ValueError(f"point {p} does not lie inside the sample box {box}")
    largest = float(np.min(room))
    if r_max is None or r_max > largest:
        radius = "the default r_max" if r_max is None else f"r_max {r_max:g}"
        raise ValueError(
            f"{radius} takes a ball outside the sample box {box}; give r_max "
            f"(--r-max on the command line) of at most {largest:g}"
        )


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
    marker.  When f has a domain, r_max must keep B(x, r_max) inside it.
    """
    if not f.continuous:
        raise ValueError("the maximal-operator pipeline requires continuous f")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    x = _point(x, f.dimension)
    _check_reach(f, x[None, :], r_max)
    absf = absolute(f)
    which = "the default r_max" if r_max is None else "r_max"
    if r_max is None:
        r_max = _default_r_max(f, x)
        if not math.isfinite(r_max):
            raise ValueError(
                f"the default r_max at x={x.tolist()} is infinite; give a "
                "finite r_max (--r-max on the command line)"
            )
    if not math.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    r_lo = max(lam, _R_MIN_FLOOR)
    if r_max <= r_lo:
        raise ValueError(
            f"r_max {r_max:g} must exceed the lower end of the search range, "
            f"max(lambda, {_R_MIN_FLOOR:g}) = {r_lo:g}"
        )
    if r_max > (limit := _radius_limit(f.dimension)):
        raise ValueError(
            f"{which} {r_max:g} at x={x.tolist()} is too large: the volume of a ball in "
            f"R^{f.dimension} overflows beyond a radius of about {limit:.4g}; give a "
            "smaller r_max (--r-max on the command line)"
        )

    grid = np.geomspace(r_lo, r_max, _GRID_POINTS)
    if lam > 0:
        grid[0] = lam
    # one profile: the grid averages, and the refinement's probes
    profile = _ShellProfile(absf, x, grid)
    avgs = profile.table
    grid_best, grid_low = float(np.max(avgs)), float(np.min(avgs))
    if grid_best > _OVERFLOW_GUARD:
        raise MaximalBlowupError(
            f"ball averages exceed the overflow guard at x={x.tolist()}: "
            "the maximal function is infinite there"
        )

    candidates = []
    if lam == 0.0:
        at_x = abs(f(x))
        candidates.append((0.0, at_x))

    spread = grid_best - grid_low
    scale = 1.0 + float(np.max(np.abs(avgs)))
    flat = spread < 1e-13 * scale
    if flat and lam == 0.0 and abs(at_x - avgs[0]) < 1e-12 * scale:
        # constant averages at every radius: the whole range attains the sup
        value = at_x
        rset = RadiiSet(tuple(x), lam, (0.0, math.inf), value, {"flat": True})
        return value, rset

    interior = np.flatnonzero(
        (avgs[1:-1] >= avgs[:-2]) & (avgs[1:-1] >= avgs[2:])
    ) + 1
    # skip local maxima far below the grid best (plateaus of a losing
    # branch); compress plateau runs into one bracket each, in the
    # profile's Python floats
    margin = 0.02 * spread + 1e-12 * scale
    runs = []
    for i in interior[avgs[interior] >= grid_best - margin].tolist():
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    radius, average = profile.radii, profile.averages
    brackets = [(radius[i - 1], radius[j + 1]) for i, j in runs]
    if average[0] >= average[1] and average[0] >= grid_best - margin:
        brackets.append((radius[0], radius[1]))
    if average[-1] >= average[-2] and average[-1] >= grid_best - margin:
        brackets.append((radius[-2], radius[-1]))
    candidates += [_brent_max(profile, a, b) for a, b in brackets]

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
    tail_high = average[-1] >= best - _REL_TOL * (1.0 + abs(best))
    if tail_high and not flat:
        radii.append(math.inf)  # r_max was not large enough to separate the tail
    rset = RadiiSet(
        tuple(x),
        lam,
        tuple(radii),
        best,
        {"grid_best": grid_best, "tail_average": average[-1]},
    )
    return best, rset


def maximal_directional_derivative(
    f: DirectionalFunction,
    x,
    theta,
    lam: float = 0.0,
    r_max: Optional[float] = None,
) -> float:
    """Envelope formula: sup over the best radii of the shell derivative.

    r = 0 contributes the one-sided derivative of |f| itself; r = inf
    contributes 0 (the point is then a global minimum of the maximal
    function).  At lam = 0 the formula is only claimed where f is
    differentiable, which is checked up front (tau, fitted at its last
    rung only).  The radii are searched up to r_max, as in :func:`maximal`.
    """
    x = _point(x, f.dimension)
    unit = _direction(theta, f.dimension)
    absf = absolute(f)
    if lam == 0.0:
        n = f.dimension
        t = tau(f, x, full_space(n), max(8, 2 * n), DEFAULT_LADDER[-1:]).value
        if t >= _DIFFERENTIABILITY_TOL:
            raise ValueError(
                f"envelope formula at lambda=0 needs f differentiable at "
                f"{x.tolist()}; residual {t:.3e} >= {_DIFFERENTIABILITY_TOL}"
            )
    _, rset = maximal(f, x, lam, r_max)
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
    """(points, values, radii sets) of the operator over a grid, row-major:
    one :func:`maximal` call per point, in order.  ``threads`` must be 1."""
    if threads != 1:
        raise ValueError(f"threads must be 1: the field points run in order, got {threads}")
    pts, _ = _box_grid(box, resolution, f.dimension, 1)
    _check_reach(f, pts, r_max)
    results = [maximal(f, p, lam, r_max) for p in pts]
    values = np.array([v for v, _ in results])
    radii = [rs for _, rs in results]
    return pts, values, radii
