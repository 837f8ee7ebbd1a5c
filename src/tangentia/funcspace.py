"""Function representations, ball/sphere averaging quadrature, and the
function-spec mini-language.

Everything downstream (the non-differentiability measure, the maximal
operator, the distance specials) consumes :class:`DirectionalFunction`
values built here.  All types are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NumericDomainError, SpecParseError

__all__ = [
    "DirectionalFunction",
    "GridFunction",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "unit_ball_volume",
    "unit_sphere_area",
    "ball_average",
    "ball_average_radii",
    "sphere_average_derivative",
    "absolute",
    "parse_function_spec",
    "BUILTINS",
]


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (2, pi, 4pi/3 for n = 1, 2, 3)."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n.

    For n = 1 the sphere is two points carrying counting measure 2.
    """
    return n * unit_ball_volume(n)


# ---------------------------------------------------------------------------
# function values


@dataclass(frozen=True)
class DirectionalFunction:
    """A scalar function on R^n with optional derivative oracle.

    ``derivative(x, theta)`` returns the exact one-sided directional
    derivative at ``x`` in the unit direction ``theta`` when available.
    ``lipschitz`` is a global Lipschitz bound, ``support`` an effective
    support box (lo, hi) used to size radius searches.  The maximal-operator
    pipelines require ``continuous=True``.
    """

    evaluator: Callable[[np.ndarray], float]
    dimension: int
    derivative: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    lipschitz: Optional[float] = None
    continuous: bool = True
    batch_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: Optional[Tuple[np.ndarray, np.ndarray]] = None
    label: str = ""

    def __call__(self, x) -> float:
        return float(self.evaluator(_point(x, self.dimension)))

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, n) array of points, vectorized when possible."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"expected (m, {self.dimension}) points, got {points.shape}"
            )
        if self.batch_evaluator is not None:
            return np.asarray(self.batch_evaluator(points), dtype=float)
        return np.array([self.evaluator(p) for p in points], dtype=float)


def absolute(f: DirectionalFunction) -> DirectionalFunction:
    """|f|, preserving the Lipschitz bound, support, and oracle.

    At points with f(x) = 0 the one-sided derivative of |f| is |D_theta f|.
    """

    def ev(x):
        return abs(f.evaluator(x))

    batch = None
    if f.batch_evaluator is not None:
        batch = lambda pts: np.abs(f.batch_evaluator(pts))  # noqa: E731

    deriv = None
    if f.derivative is not None:

        def deriv(x, theta):
            v = f(x)
            d = f.derivative(x, theta)
            if v > 0.0:
                return d
            if v < 0.0:
                return -d
            return abs(d)

    return DirectionalFunction(
        evaluator=ev,
        dimension=f.dimension,
        derivative=deriv,
        lipschitz=f.lipschitz,
        continuous=f.continuous,
        batch_evaluator=batch,
        support=f.support,
        label=f"abs({f.label})" if f.label else "",
    )


# ---------------------------------------------------------------------------
# the input gate: every public entry point checks its points, directions
# and boxes here


def _point(x, n: int) -> np.ndarray:
    """x as a float array of shape (n,) with finite coordinates."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError(f"expected a point in R^{n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point {x.tolist()} must have finite coordinates")
    return x


def _direction(theta, n: int) -> np.ndarray:
    """theta scaled to a unit vector of shape (n,); a zero or non-finite
    direction is refused."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (n,):
        raise ValueError(f"expected a direction in R^{n}, got shape {theta.shape}")
    norm = float(np.linalg.norm(theta))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"direction {theta.tolist()} must be nonzero and finite")
    return theta / norm


def _box_grid(box, resolution, n: int, min_nodes: int):
    """The (m, n) nodes of the grid on box = (lo, hi), row-major, and its
    largest cell width.

    The corners must be finite points of R^n with hi > lo on every axis.
    The resolution is a whole number of nodes, at least min_nodes, for
    every axis or one per axis.  An axis with one node is one cell wide.
    """
    lo, hi = (np.atleast_1d(np.asarray(c, dtype=float)) for c in box)
    if np.ndim(resolution) == 0:
        resolution = (resolution,) * n
    res = np.asarray(resolution, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,) or res.shape != (n,):
        raise ValueError(
            f"grid box corners have {lo.size} and {hi.size} coordinates and the "
            f"resolution has {res.size} entries, expected {n} each"
        )
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(
            f"grid box corners {lo.tolist()} and {hi.tolist()} must be finite"
        )
    if np.any(hi <= lo):
        raise ValueError(
            f"grid box upper corner {hi.tolist()} must exceed the lower "
            f"{lo.tolist()} on every axis"
        )
    if not np.all(np.isfinite(res) & (res == np.round(res))):
        raise ValueError(f"resolution must count whole nodes, got {resolution}")
    counts = res.astype(int)
    if np.any(counts < min_nodes):
        plural = "s" if min_nodes > 1 else ""
        raise ValueError(
            f"need at least {min_nodes} grid point{plural} per axis, "
            f"got resolution {tuple(counts.tolist())}"
        )
    axes = [np.linspace(lo[i], hi[i], c) for i, c in enumerate(counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    cell = float(np.max((hi - lo) / np.maximum(counts - 1, 1)))
    return np.stack([m.ravel() for m in mesh], axis=-1), cell


# ---------------------------------------------------------------------------
# grid-sampled functions


@dataclass(frozen=True)
class GridFunction:
    """Samples on an axis-aligned box with multilinear interpolation.

    Samples are stored row-major over the per-axis resolutions; the
    interpolant reproduces stored samples exactly at the grid nodes.
    """

    lo: tuple
    hi: tuple
    resolution: tuple
    samples: np.ndarray  # flat, row-major

    def __post_init__(self):
        _box_grid((self.lo, self.hi), self.resolution, len(self.resolution), 2)
        expected = int(np.prod(self.resolution))
        if self.samples.size != expected:
            raise ValueError(
                f"sample count {self.samples.size} != prod(resolution) {expected}"
            )

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    def axes(self):
        return [
            np.linspace(self.lo[i], self.hi[i], self.resolution[i])
            for i in range(self.dimension)
        ]

    def _interpolator(self):
        from scipy.interpolate import RegularGridInterpolator

        shaped = self.samples.reshape(self.resolution)
        return RegularGridInterpolator(
            self.axes(), shaped, method="linear", bounds_error=True
        )

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        return self._interpolator()(np.atleast_2d(points))

    def as_function(self) -> DirectionalFunction:
        """The interpolant; a point outside the sample box is refused."""
        interp = self._interpolator()
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)

        def batch(pts):
            outside = np.any((pts < lo) | (pts > hi), axis=1)
            if np.any(outside):
                p = tuple(pts[np.argmax(outside)].tolist())
                box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(lo, hi))
                raise ValueError(f"point {p} lies outside the sample box {box}")
            return np.asarray(interp(pts), dtype=float)

        return DirectionalFunction(
            evaluator=lambda x: float(batch(x[None, :])[0]),
            dimension=self.dimension,
            batch_evaluator=batch,
            support=(lo, hi),
            label="grid",
        )

    @classmethod
    def from_function(cls, f: DirectionalFunction, lo, hi, resolution):
        n = f.dimension
        nodes, _ = _box_grid((lo, hi), resolution, n, 2)
        resolution = tuple(int(r) for r in np.broadcast_to(resolution, n))
        vals = f.evaluate_many(nodes)
        # the first and last grid nodes are the box corners
        return cls(tuple(nodes[0]), tuple(nodes[-1]), resolution, vals)

    # CSV format: header line "n,res...,lo...,hi..." then one sample per line.
    def to_csv(self, path):
        n = self.dimension
        header = [str(n)]
        header += [str(r) for r in self.resolution]
        header += [repr(float(v)) for v in self.lo]
        header += [repr(float(v)) for v in self.hi]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for v in self.samples:
                fh.write(repr(float(v)) + "\n")

    @classmethod
    def from_csv(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            fields = [s for s in header.split(",") if s]
            n = int(fields[0]) if fields else 0
            if len(fields) != 1 + 3 * n:
                raise ValueError(
                    f"grid header needs 1+3n fields for n={n}, got {len(fields)}"
                )
            resolution = tuple(int(v) for v in fields[1 : 1 + n])
            lo = tuple(float(v) for v in fields[1 + n : 1 + 2 * n])
            hi = tuple(float(v) for v in fields[1 + 2 * n : 1 + 3 * n])
            body = fh.read().split()
        samples = np.array([float(v) for v in body])
        return cls(lo, hi, resolution, samples)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadratureConfig:
    """Ball and sphere rules per dimension.

    Ball rules are polar/spherical products (smooth integrands, no
    indicator weighting): ``radial_order`` Gauss-Legendre nodes radially
    with the r^(n-1) Jacobian folded into the weights, times a fixed
    direction set: the two points +-1 in 1D, ``angular_order`` equal
    angles in 2D and the 3D sphere rule with 2 ``radial_order``^2 nodes
    (Gauss-Legendre in the polar cosine, equal-angle azimuth) in 3D.
    Sphere rules use ``sphere_nodes`` total nodes.  Weights are
    normalized so the ball rule integrates 1 to the exact ball volume and
    the sphere rule to the exact surface area.

    ``ball_average_radii`` applies the ball rule at its first positive
    radius only.  Beyond it, it integrates over the same directions on
    annuli, with _GAP_NODES = 4 Gauss-Legendre radii per piece, pieces at
    most _MAX_PIECE = 5 % of their outer radius wide, and at most
    _CHUNK_POINTS = 2^18 points per batched evaluation.  ``ball_average``
    integrates a positive 1D radius adaptively: a 4-node piece is blind to
    a kink near its ends, where in 2D and 3D the direction sum smooths it.
    """

    radial_order: int = 32
    angular_order: int = 64
    sphere_nodes_2d: int = 720
    sphere_nodes_3d: int = 2562

    def ball_rule(self, n: int):
        """Unit-ball nodes (m, n) and weights summing to unit_ball_volume(n)."""
        return _ball_rule(n, self.radial_order, self.angular_order)

    def sphere_rule(self, n: int):
        """Unit-sphere directions (m, n) and weights summing to the area."""
        if n == 1:
            m = 2
        elif n == 2:
            m = self.sphere_nodes_2d
        else:
            m = self.sphere_nodes_3d
        return _sphere_rule(n, m)


DEFAULT_QUADRATURE = QuadratureConfig()

# shell profile of ball_average_radii (see _annulus_integrals)
_GAP_NODES = 4  # Gauss-Legendre nodes per annulus piece
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAP_NODES)
_MAX_PIECE = 0.05  # widest annulus piece, relative to its outer radius
_CHUNK_POINTS = 1 << 18  # shell points per batched evaluation


@lru_cache(maxsize=32)
def _sphere_rule(n: int, m: int):
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
        w = np.array([1.0, 1.0])
        return dirs, w
    if n == 2:
        ang = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        w = np.full(m, 2.0 * math.pi / m)
        return dirs, w
    if n == 3:
        # Gauss-Legendre in cos(polar) x equal-angle azimuth, sized to ~m nodes.
        n_polar = max(4, int(round(math.sqrt(m / 2.0))))
        n_az = max(4, int(math.ceil(m / n_polar)))
        mu, wmu = np.polynomial.legendre.leggauss(n_polar)
        az = 2.0 * math.pi * (np.arange(n_az) + 0.5) / n_az
        sin_pol = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
        x = sin_pol[:, None] * np.cos(az)[None, :]
        y = sin_pol[:, None] * np.sin(az)[None, :]
        z = np.broadcast_to(mu[:, None], x.shape)
        dirs = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=-1)
        w = np.broadcast_to(wmu[:, None] * (2.0 * math.pi / n_az), x.shape).ravel()
        return dirs, w.copy()
    raise ValueError(f"unsupported dimension {n} (1-3 only)")


@lru_cache(maxsize=32)
def _ball_directions(n: int, q: int, ang: int):
    """Directions (m, n) of the ball rule, weights summing to the area: the
    sphere rule with 2, ang and 2 q^2 nodes in 1D, 2D and 3D."""
    return _sphere_rule(n, {1: 2, 2: ang, 3: 2 * q * q}.get(n, 0))


@lru_cache(maxsize=32)
def _ball_rule(n: int, q: int, ang: int):
    t, wt = np.polynomial.legendre.leggauss(q)
    rho = 0.5 * (t + 1.0)  # radial nodes on [0, 1]
    wrho = 0.5 * wt
    dirs, wdir = _ball_directions(n, q, ang)
    nodes = rho[:, None, None] * dirs[None, :, :]
    w = (wrho * rho ** (n - 1))[:, None] * wdir[None, :]
    return nodes.reshape(-1, n), w.ravel()


def _check_finite(values: np.ndarray, points: np.ndarray):
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NumericDomainError(points[idx], float(values[idx]))


def ball_average(
    f: DirectionalFunction,
    x,
    r: float,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Average of f over the ball B(x, r); f(x) itself when r = 0.

    A positive 1D radius is integrated adaptively, the 1D refinement rule
    (see ``ball_average_radii``); every other radius goes to that function.
    """
    x = _point(x, f.dimension)
    if f.dimension == 1 and 0.0 < r < math.inf:
        from scipy.integrate import quad

        val, _ = quad(
            lambda t: f.evaluator(np.array([t])),
            float(x[0]) - r,
            float(x[0]) + r,
            epsabs=1e-12,
            epsrel=1e-11,
            limit=200,
        )
        if not math.isfinite(val):
            raise NumericDomainError(x, val)
        return val / (2.0 * r)
    return float(ball_average_radii(f, x, [r], quadrature)[0])


def _ball_rule_sum(f, x, r: float, quadrature) -> float:
    """The ball rule's weighted sum of f on B(x, r): the average times the
    unit-ball volume."""
    nodes, w = quadrature.ball_rule(f.dimension)
    pts = x[None, :] + r * nodes
    vals = f.evaluate_many(pts)
    _check_finite(vals, pts)
    return float(w @ vals)


def ball_average_radii(
    f: DirectionalFunction,
    x,
    radii: np.ndarray,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Averages of f over B(x, r) at finite, strictly ascending radii >= 0.

    A radius 0 gives f(x).  The averages come from one cumulative radial
    integral, the shell profile: the ball rule at the first positive
    radius, then the integral of f over each annulus between consecutive
    radii (:func:`_annulus_integrals`).  Where consecutive radii are
    close, as on the radius grid of ``maxop.maximal``, this costs a few
    shells per radius instead of a whole ball.  A 1D shell is the two
    points x +- s, so a 4-node piece is blind to a kink of f near its
    ends: the 1D radius search refines on the adaptive ``ball_average``,
    while in 2D and 3D the direction sum smooths kinks.
    """
    x = _point(x, f.dimension)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not (
        np.all(np.isfinite(radii))
        and np.all(radii >= 0.0)
        and np.all(np.diff(radii) > 0.0)
    ):
        raise ValueError(
            f"radii must be finite, >= 0 and strictly ascending, got {radii}"
        )
    out = np.empty(len(radii))
    start = int(len(radii) > 0 and radii[0] == 0.0)
    if start:
        out[0] = f(x)
        _check_finite(out[:1], x[None, :])
    pos = radii[start:]
    if len(pos) == 0:
        return out
    # the ball rule at the first radius, then one annulus per later radius
    n = f.dimension
    first = _ball_rule_sum(f, x, pos[0], quadrature)
    annuli = _annulus_integrals(f, x, pos[:-1], pos[1:], quadrature)
    totals = first * pos[0] ** n + np.concatenate(([0.0], np.cumsum(annuli)))
    out[start:] = totals / (unit_ball_volume(n) * pos**n)
    out[start] = first / unit_ball_volume(n)  # exactly ball_average's value
    return out


def _profile_at(f, x, radii, averages, r: float) -> float:
    """The shell profile of ``ball_average_radii(f, x, radii)`` at r.

    Adds the annulus from the largest tabulated radius g <= r to r, so it
    returns ``averages`` exactly at a tabulated radius, and a search that
    mixes tabulated and new radii compares values of one rule.
    """
    k = int(np.searchsorted(radii, r, side="right")) - 1
    if k < 0:
        raise ValueError(f"radius {r} lies below the tabulated radii")
    g = float(radii[k])
    if r == g:
        return float(averages[k])
    n = f.dimension
    vol = unit_ball_volume(n)
    annulus = _annulus_integrals(f, x, np.array([g]), np.array([r]), DEFAULT_QUADRATURE)
    return float((averages[k] * vol * g**n + annulus[0]) / (vol * r**n))


def _annulus_integrals(f, x, lo, hi, quadrature) -> np.ndarray:
    """Integral of f over each annulus lo[k] < |y - x| < hi[k], hi > lo >= 0.

    In polar form this is the integral over s in [lo, hi] of s^(n-1)
    times the ball rule's direction sum of f(x + s u).  Each gap is cut
    into equal pieces no wider than _MAX_PIECE of its outer radius, with
    a _GAP_NODES-node Gauss-Legendre rule on each piece.  The shell
    points are evaluated at most _CHUNK_POINTS at a time, so memory does
    not grow with the number of radii.
    """
    n = f.dimension
    dirs, wdir = _ball_directions(n, quadrature.radial_order, quadrature.angular_order)
    m = len(dirs)
    dirs_t = np.ascontiguousarray(dirs.T)
    pieces = np.maximum(1, np.ceil((hi - lo) / (_MAX_PIECE * hi))).astype(int)
    gap = np.repeat(np.arange(len(lo)), pieces)
    j = np.arange(len(gap)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = (hi - lo)[gap] / pieces[gap]
    a = lo[gap] + j * step
    b = np.where(j == pieces[gap] - 1, hi[gap], a + step)
    half = 0.5 * (b - a)
    s = ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()
    shell = np.empty(len(s))
    per_chunk = max(1, _CHUNK_POINTS // m)
    for i in range(0, len(s), per_chunk):
        # the transpose of an (n, points) array: per-coordinate work in a
        # batch evaluator (sums of squares, differences) reads unit strides
        shells = s[None, i : i + per_chunk, None] * dirs_t[:, None, :]
        pts = (x[:, None, None] + shells).reshape(n, -1).T
        vals = f.evaluate_many(pts)
        _check_finite(vals, pts)
        shell[i : i + per_chunk] = vals.reshape(-1, m) @ wdir
    radial = (s ** (n - 1) * shell).reshape(-1, _GAP_NODES) @ _GL_WEIGHTS
    return np.bincount(gap, weights=half * radial, minlength=len(lo))


def sphere_average_derivative(
    f: DirectionalFunction,
    x,
    r: float,
    theta,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Directional derivative of the ball average x -> f_r(x).

    Computed as a surface integral against the outward-normal component
    of theta, normalized so that linear f returns exactly grad.theta
    (divergence-theorem calibration of the unspecified constant).
    """
    x = _point(x, f.dimension)
    theta = _direction(theta, f.dimension)
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {r}")
    dirs, w = quadrature.sphere_rule(f.dimension)
    pts = x[None, :] + r * dirs
    vals = f.evaluate_many(pts)
    _check_finite(vals, pts)
    proj = dirs @ theta
    # surface element r^(n-1) combines with 1/(omega_n r^n) to 1/(omega_n r)
    return float((w * proj) @ vals) / (unit_ball_volume(f.dimension) * r)


# ---------------------------------------------------------------------------
# builtin function constructors


def make_tent() -> DirectionalFunction:
    """1D tent max(0, 1 - |y|): Lipschitz 1, kinks at -1, 0, 1."""

    def ev(x):
        return max(0.0, 1.0 - abs(x[0]))

    def batch(pts):
        return np.maximum(0.0, 1.0 - np.abs(pts[:, 0]))

    def deriv(x, theta):
        y = float(x[0])
        d = float(theta[0])
        # one-sided slope of 1-|y|, then of max(0, .)
        if y == 0.0:
            dm = -abs(d)
        else:
            dm = -d * math.copysign(1.0, y)
        m = 1.0 - abs(y)
        if m > 0.0:
            return dm
        if m < 0.0:
            return 0.0
        return max(0.0, dm)

    return DirectionalFunction(
        evaluator=ev,
        dimension=1,
        derivative=deriv,
        lipschitz=1.0,
        batch_evaluator=batch,
        support=(np.array([-1.0]), np.array([1.0])),
        label="tent",
    )


def make_maxaffine(coeffs, consts) -> DirectionalFunction:
    """max_k (a_k . x + c_k): Lipschitz max|a_k|, exact active-set oracle."""
    A = np.atleast_2d(np.asarray(coeffs, dtype=float))
    c = np.asarray(consts, dtype=float)
    if A.shape[0] != c.shape[0]:
        raise ValueError("one constant per affine piece required")
    n = A.shape[1]

    def ev(x):
        return float(np.max(A @ x + c))

    def batch(pts):
        return np.max(pts @ A.T + c, axis=1)

    def deriv(x, theta):
        vals = A @ x + c
        top = float(np.max(vals))
        active = vals >= top - 1e-11 * (1.0 + abs(top))
        return float(np.max(A[active] @ theta))

    K = float(np.max(np.linalg.norm(A, axis=1))) if A.size else 0.0
    return DirectionalFunction(
        evaluator=ev,
        dimension=n,
        derivative=deriv,
        lipschitz=K,
        batch_evaluator=batch,
        label="maxaffine",
    )


def make_abs() -> DirectionalFunction:
    f = make_maxaffine([[1.0], [-1.0]], [0.0, 0.0])
    return replace(f, label="abs")


def make_gauss(s: float, n: int = 1) -> DirectionalFunction:
    """exp(-|x|^2 / (2 s^2)): smooth, gradient oracle, effective support 6s."""
    if s <= 0:
        raise ValueError(f"gauss width must be > 0, got {s}")
    inv = 1.0 / (s * s)

    def ev(x):
        return math.exp(-0.5 * inv * float(x @ x))

    def batch(pts):
        return np.exp(-0.5 * inv * np.sum(pts * pts, axis=1))

    def deriv(x, theta):
        return float((-inv * x @ theta) * ev(x))

    return DirectionalFunction(
        evaluator=ev,
        dimension=n,
        derivative=deriv,
        lipschitz=math.exp(-0.5) / s,
        batch_evaluator=batch,
        support=(np.full(n, -6.0 * s), np.full(n, 6.0 * s)),
        label=f"gauss({s})",
    )


# ---------------------------------------------------------------------------
# mini-language parser

BUILTINS = ("tent", "abs", "gauss", "maxaffine", "dist", "distpoly", "infconv", "grid")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise SpecParseError(f"expected {ch!r}, got {got!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise SpecParseError("expected a builtin name", start)
        return self.text[start : self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        seen = False
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in "+-.eE"
        ):
            # only allow e/E-signs inside exponents
            ch = self.text[self.pos]
            if ch in "+-" and seen and self.text[self.pos - 1] not in "eE":
                break
            seen = True
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise SpecParseError("expected a number", start) from None

    def tuple_(self):
        self.expect("(")
        vals = [self.number()]
        while self.peek() == ",":
            self.expect(",")
            vals.append(self.number())
        self.expect(")")
        return vals

    def point_list(self):
        """[p1, p2, ...] where p is a tuple or a bare 1D number."""
        self.expect("[")
        pts = []
        while True:
            if self.peek() == "(":
                pts.append(self.tuple_())
            else:
                pts.append([self.number()])
            if self.peek() == ",":
                self.expect(",")
                continue
            break
        self.expect("]")
        return pts


def parse_function_spec(text: str) -> DirectionalFunction:
    """Parse one mini-language expression into a DirectionalFunction.

    Builtins: tent, abs, gauss(s[,n]), maxaffine[(a...,c),...],
    dist[p1,...], distpoly[v1,...], infconv(u, t), grid:<path>.
    """
    normalized = text.replace("−", "-").strip()
    if normalized.startswith("grid:"):
        path = normalized[len("grid:") :].strip()
        if not path:
            raise SpecParseError("grid: requires a file path", 5)
        try:
            return GridFunction.from_csv(path).as_function()
        except ValueError as exc:
            raise SpecParseError(f"malformed grid file {path}: {exc}", 5) from exc
    sc = _Scanner(normalized)
    f = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(normalized):
        raise SpecParseError("trailing input after expression", sc.pos)
    return f


def _parse_expr(sc: _Scanner) -> DirectionalFunction:
    at = sc.pos
    name = sc.ident()
    if name == "tent":
        return make_tent()
    if name == "abs":
        return make_abs()
    if name == "gauss":
        sc.expect("(")
        s = sc.number()
        n = 1
        if sc.peek() == ",":
            sc.expect(",")
            sc.skip_ws()
            at_n = sc.pos
            dim = sc.number()
            if dim not in (1.0, 2.0, 3.0):
                raise SpecParseError(
                    f"gauss dimension must be 1, 2 or 3, got {dim:g}", at_n
                )
            n = int(dim)
        sc.expect(")")
        return make_gauss(s, n)
    if name == "maxaffine":
        rows = sc.point_list()
        width = len(rows[0])
        if width < 2 or any(len(r) != width for r in rows):
            raise SpecParseError(
                "maxaffine pieces need matching (a...,c) lengths >= 2", at
            )
        A = [r[:-1] for r in rows]
        c = [r[-1] for r in rows]
        return make_maxaffine(A, c)
    if name == "dist":
        pts = sc.point_list()
        width = len(pts[0])
        if any(len(p) != width for p in pts):
            raise SpecParseError("dist points must share a dimension", at)
        from .specials import ClosedSetModel, distance_function

        return distance_function(ClosedSetModel.from_points(pts))
    if name == "distpoly":
        verts = sc.point_list()
        if any(len(v) != 2 for v in verts):
            raise SpecParseError("distpoly vertices must be 2D", at)
        from .specials import ClosedSetModel, distance_function

        return distance_function(ClosedSetModel.from_polygon(verts))
    if name == "infconv":
        sc.expect("(")
        inner = _parse_expr(sc)
        sc.expect(",")
        t = sc.number()
        sc.expect(")")
        from .specials import make_infconv

        return make_infconv(inner, t)
    raise SpecParseError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTINS)}", at
    )
