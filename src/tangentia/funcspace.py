"""Function representations, ball/sphere averaging quadrature, and the
function-spec mini-language.

Everything downstream (the non-differentiability measure, the maximal
operator, the distance specials) consumes :class:`DirectionalFunction`
values built here.  All types are immutable and all operations pure.
"""

from __future__ import annotations

import bisect
import math
import numbers
import operator
import sys
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
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
    support box (lo, hi) used to size radius searches.  ``domain`` is a box
    (lo, hi) outside which f is not defined, such as the sample box of a
    grid function; None means all of R^n.  The maximal-operator pipelines
    require ``continuous=True``.

    ``kinks`` are the 1D points where |f| may bend: the kinks of f and
    where it changes sign.  Ball averages cut their pieces there, so they
    are exact on a piecewise-linear f.  A 1D f without kinks is treated
    as smooth, as every 2D and 3D f is; an undeclared kink costs up to
    about 1e-5 in a maximal value (the tent without its kinks at 100
    seeded points in [-3, 3]: 8.2e-6 worst, against 1.2e-15 with them).

    Both evaluators refuse a non-finite value with NumericDomainError,
    naming the first point, in evaluation order, that gives one.

    ``zero_outside`` is a radius R >= 0 about the origin beyond which
    (|y| >= R) both evaluators return exactly 0.0; None declares none.
    Ball averages skip the shells that cannot meet B(0, R) and write 0.0
    for them, which is what evaluating f there would give, so every
    result is bitwise the same as without R.  ``gauss`` and ``tent``
    declare it; ``absolute`` keeps it.
    """

    evaluator: Callable[[np.ndarray], float]
    dimension: int
    derivative: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    lipschitz: Optional[float] = None
    continuous: bool = True
    batch_evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None
    support: Optional[Tuple[np.ndarray, np.ndarray]] = None
    label: str = ""
    domain: Optional[Tuple[np.ndarray, np.ndarray]] = None
    kinks: Tuple[float, ...] = ()
    zero_outside: Optional[float] = None

    def __call__(self, x) -> float:
        x = _point(x, self.dimension)
        if not math.isfinite(value := float(self.evaluator(x))):
            raise NumericDomainError(x, value)
        return value

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, n) array of points, vectorized when possible."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dimension:
            raise ValueError(
                f"expected (m, {self.dimension}) points, got {points.shape}"
            )
        if self.batch_evaluator is not None:
            values = np.asarray(self.batch_evaluator(points), dtype=float)
        else:
            values = np.array([self.evaluator(p) for p in points], dtype=float)
        return _check_finite(values, points)


def _check_finite(values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """values, unless one is non-finite: the first such point is refused."""
    finite = np.isfinite(values)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NumericDomainError(points[idx], float(values[idx]))
    return values


def absolute(f: DirectionalFunction) -> DirectionalFunction:
    """|f|, preserving the Lipschitz bound, support, kinks, zero radius
    and oracle.

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

    return replace(
        f,
        evaluator=ev,
        derivative=deriv,
        batch_evaluator=batch,
        label=f"abs({f.label})" if f.label else "",
    )


# ---------------------------------------------------------------------------
# the input gate: every public entry point checks its points, point
# clouds, directions and boxes here


def _point(x, n: int) -> np.ndarray:
    """x as a float array of shape (n,) with finite coordinates."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ValueError(f"expected a point in R^{n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point {x.tolist()} must have finite coordinates")
    return x


def _cloud(points) -> np.ndarray:
    """points as a nonempty float array of shape (m, n), one point per
    row, with finite coordinates."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.size == 0:
        raise ValueError(
            f"expected a nonempty (m, n) array of points, got shape {P.shape}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(P), axis=1))
    if bad.size:
        raise ValueError(
            f"point {P[bad[0]].tolist()} (row {bad[0]}) must have finite coordinates"
        )
    return P


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


def _box_text(lo, hi) -> str:
    """A box as [lo1, hi1] x [lo2, hi2] x ..."""
    return " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(lo, hi))


def _box_order(lo, hi, counts):
    """Refuse a box whose upper corner hi does not exceed the lower lo on
    every axis, unless hi = lo on an axis of one node (counts nodes per
    axis).  A NaN corner passes: finiteness is the caller's check."""
    if np.any((hi < lo) | ((hi == lo) & (counts != 1))):
        raise ValueError(
            f"grid box upper corner {hi.tolist()} must exceed the lower "
            f"{lo.tolist()} on every axis, or equal it on an axis of one node"
        )


def _box_counts(box, resolution, n: int, min_nodes: int):
    """The corners lo, hi of box = (lo, hi) and its node counts per axis,
    checked; no node is laid out.

    The corners must be finite points of R^n with hi > lo on every axis,
    or hi = lo on an axis of one node (one cell wide).  The resolution
    counts whole nodes, at least min_nodes, once for every axis or per axis.
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
    if not np.all(np.isfinite(res) & (res == np.round(res))):
        raise ValueError(f"resolution must count whole nodes, got {resolution}")
    counts = res.astype(int)
    _box_order(lo, hi, counts)
    if np.any(counts < min_nodes):
        plural = "s" if min_nodes > 1 else ""
        raise ValueError(
            f"need at least {min_nodes} grid point{plural} per axis, "
            f"got resolution {tuple(counts.tolist())}"
        )
    return lo, hi, counts


def _box_grid(box, resolution, n: int, min_nodes: int):
    """The (m, n) nodes of the grid on box = (lo, hi), row-major, and its
    largest cell width; box and resolution as _box_counts checks them."""
    lo, hi, counts = _box_counts(box, resolution, n, min_nodes)
    axes = [np.linspace(lo[i], hi[i], c) for i, c in enumerate(counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    cell = float(np.max((hi - lo) / np.maximum(counts - 1, 1)))
    return np.stack([m.ravel() for m in mesh], axis=-1), cell


# ---------------------------------------------------------------------------
# bounded scalar minimization

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_EVALS = 500  # evaluations of fn before the search stops


def _bounded_min(fn, a: float, b: float, xatol: float):
    """A local minimum of fn inside [a, b], a < b: (x, fn(x)).

    Brent's bounded method (Brent 1973; Forsythe, Malcolm and Moler's
    ``fmin``), step for step that of scipy's ``minimize_scalar(method=
    "bounded")`` and ``fminbound``: the same constants, tolerances and
    sign rules, so it probes the same points in the same order and
    returns the same x and fn(x), in Python floats.  Parabolic steps
    where the fit is acceptable, golden sections otherwise, until both
    ends of the bracket lie within 2 (sqrt(2.2e-16) |x| + xatol / 3) of
    x or _BRENT_EVALS values are spent.  It never evaluates a or b.
    """
    a, b = float(a), float(b)
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = fn(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm - xf < 0.0 else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = fn(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_EVALS:
            break
    return xf, fx


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
        _box_counts((self.lo, self.hi), self.resolution, len(self.resolution), 2)
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
        """The interpolant; a point outside the sample box is refused.  In
        1D its kinks are the nodes and the zeros between them."""
        interp = self._interpolator()
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        kinks = ()
        if self.dimension == 1:
            t, v = self.axes()[0], self.samples
            flip = np.flatnonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)
            zeros = t[flip] - v[flip] * np.diff(t)[flip] / np.diff(v)[flip]
            kinks = tuple(np.union1d(t, zeros).tolist())

        def batch(pts):
            outside = np.any((pts < lo) | (pts > hi), axis=1)
            if np.any(outside):
                p = tuple(pts[np.argmax(outside)].tolist())
                raise ValueError(
                    f"point {p} lies outside the sample box {_box_text(lo, hi)}"
                )
            return np.asarray(interp(pts), dtype=float)

        return DirectionalFunction(
            evaluator=lambda x: float(batch(x[None, :])[0]),
            dimension=self.dimension,
            batch_evaluator=batch,
            support=(lo, hi),
            label="grid",
            domain=(lo, hi),
            kinks=kinks,
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

    No estimator reads the ball rule itself: every ball average
    integrates over its directions on annuli from radius 0, through one
    :class:`_ShellProfile`.  In 3D the profile also derives three coarser
    direction sets of the same family from ``radial_order`` q, 2 (q // d)^2
    directions for d = 2, 4 and 8: the quarter order sums a table's small
    shells from 0, checked by the eighth and audited by the half order;
    the half order the shells from the quarter order's end to the switch
    radius, first checked by the quarter, then audited by the full order,
    and a negligible tail (that pair from q = 8 on, the quarter order's
    rung below it from q = 16 on).

    Each of the four counts must be an integer >= 1 (2.0 is a float); any
    other value is refused with a ValueError that names the field.
    """

    radial_order: int = 32
    angular_order: int = 64
    sphere_nodes_2d: int = 720
    sphere_nodes_3d: int = 2562

    def __post_init__(self):
        for name in ("radial_order", "angular_order", "sphere_nodes_2d", "sphere_nodes_3d"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")

    def ball_rule(self, n: int):
        """Unit-ball nodes (m, n) and weights summing to unit_ball_volume(n)."""
        return _ball_rule(n, self.radial_order, self.angular_order)

    def sphere_rule(self, n: int):
        """Unit-sphere directions (m, n) and weights summing to the area."""
        return _sphere_rule(n, {1: 2, 2: self.sphere_nodes_2d}.get(n, self.sphere_nodes_3d))


DEFAULT_QUADRATURE = QuadratureConfig()

# the shell profile (see _ShellProfile)
_GAP_NODES = 4  # Gauss-Legendre nodes per annulus piece
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GAP_NODES)
_GL_NODE_LIST = _GL_NODES.tolist()
_MAX_PIECE = 0.05  # widest annulus piece, relative to its outer radius
_CHUNK_POINTS = 1 << 15  # shell points per batched evaluation
_COARSE_TOL = 1e-12  # 3D: the relative gap of a rung's sum and its check or audit, and a negligible shell


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
def _shell_rule(n: int, q: int, ang: int):
    """The directions of _ball_directions as a contiguous (n, m) array,
    and their weights."""
    dirs, w = _ball_directions(n, q, ang)
    return np.ascontiguousarray(dirs.T), w


@lru_cache(maxsize=32)
def _ball_rule(n: int, q: int, ang: int):
    t, wt = np.polynomial.legendre.leggauss(q)
    rho = 0.5 * (t + 1.0)  # radial nodes on [0, 1]
    wrho = 0.5 * wt
    dirs, wdir = _ball_directions(n, q, ang)
    nodes = rho[:, None, None] * dirs[None, :, :]
    w = (wrho * rho ** (n - 1))[:, None] * wdir[None, :]
    return nodes.reshape(-1, n), w.ravel()


def ball_average(
    f: DirectionalFunction,
    x,
    r: float,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Average of f over the ball B(x, r); f(x) itself when r = 0.

    The shell profile of ``ball_average_radii`` at the one radius r.
    """
    return float(ball_average_radii(f, x, [r], quadrature)[0])


def ball_average_radii(
    f: DirectionalFunction,
    x,
    radii: np.ndarray,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """Averages of f over B(x, r) at finite, strictly ascending radii >= 0:
    the ``table`` of one :class:`_ShellProfile` (a radius 0 gives f(x))."""
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
    return _ShellProfile(f, x, radii, quadrature).table


def _radius_limit(n: int) -> float:
    """About the largest radius whose ball volume omega_n r^n is finite."""
    return (sys.float_info.max / unit_ball_volume(n)) ** (1.0 / n)


class _ShellProfile:
    """The ball averages of f about x from one cumulative radial integral:
    ``table`` holds them at the ascending radii >= 0 it is built on (0
    gives f(x)), and a call gives the average at any radius r >= radii[0].

    The table integrates f over the first positive ball as an annulus
    from 0, then over each annulus between consecutive radii
    (:meth:`annulus_integrals`): on the close radii of the grid of
    ``maxop.maximal`` a few shells per radius instead of a whole ball,
    and a memory that does not grow with the number of radii (a 3D gauss
    peaks at about 1.5 MB on that grid).  A 1D shell is the two points
    x +- s, so the pieces are cut where a shell meets one of f's kinks:
    a piecewise-linear f is integrated exactly.

    A probe at r adds the annulus from the largest tabulated radius
    g <= r to r, with the pieces of :meth:`annulus_integrals` on that one
    gap, summed in the same order: the table's value at a tabulated
    radius, elsewhere that annulus integral's value bit for bit, so a
    search that mixes tabulated and new radii compares values of one
    rule.  A probe lays its one gap out in Python floats, then evaluates
    it through :meth:`_radial` as the table does: on a 2-core Xeon a 1D
    gauss probe took 23 us, against 31 us with the gap laid out in numpy
    arrays, and a tent probe cut at a kink 26 us, against 38 us.

    The constructor sets up what both share: the directions and weights
    of the quadrature's ball rule, the unit-ball volume, in 1D the sorted
    distances |k - x| of the kinks k of f, and the ``reach``, the shell
    radii about x that can meet B(0, R) for R = f.zero_outside, widened
    by 1e-9 (|x| + R) for rounding (None without R or where |x|
    overflows).  It refuses a radius beyond :func:`_radius_limit`.

    A 3D shell is summed on one of three rules of the ball rule's
    Gauss-Legendre x azimuth family, the quarter radial order (128
    directions at the default order 32), the half order (512) or the
    full order (2,048), chosen per segment between the ascending
    ``bounds``.  The table's shells run in ascending radius from 0 and
    place the bounds as they go, up a ladder of checked ``rungs``, (rule,
    check) pairs: the quarter order checked by the eighth (32
    directions), then the half order checked by the quarter.  On a rung
    the chunk loop also sums each shell on its check, and below the last
    rung the first Gauss-Legendre node of each radial piece (one shell
    in 4) on the next rung's rule, the audit; the rung ends at the first
    shell where the check, or the audit, differs by more than _COARSE_TOL
    of the rung's sum, or the rung's sum is not finite, and the next rung
    takes the shells from there.  After the last rung an audited segment
    keeps its rule with no check and audits the first node of each piece
    on the full rule; its first shell whose audit differs, or whose sum
    is not finite, hands on to the full rule, from the ``switch``.  After
    a chunk of the audited segment or of the full rule whose every shell
    is negligible, |S| t^2 at most _COARSE_TOL times the largest |S| t^2
    tabulated so far (S the direction sum at shell radius t), a tail
    starts: its shells are summed on the half order alone, and the first
    shell above that threshold is handed back to the last rung, which
    climbs as before (never to the first rung).  If the table ends below
    the full rule, its largest radius is the last bound, since no shell
    beyond it was judged.  A rung exists where its check's order is at
    least 2: below, its rule and its check can be the same 16
    directions, so order 8 keeps the half order alone and an order below
    8 the full rule alone.  Two sums of exactly 0.0 agree and are
    negligible, so a declared ``zero_outside`` still changes no bit.
    Probes and later :meth:`annulus_integrals` calls split their shells
    at the bounds without judging them, so a probe stays the annulus
    integral of the table's own rules, and the table is bitwise what
    those calls assemble.  1D and 2D shells use the one rule (in 2D the
    same ladder on 32 and 16 of the 64 angles changed the evaluations of
    a ``maxop.maximal`` call by -14 % to +18 % at 12 random points).

    Measured: the 512-radius grid of gauss(0.5, 3) at (0.2, 0.2, 0.2)
    to radius 100 evaluates 1,089,536 points (941,568 with its
    ``zero_outside``), against 1,232,384 (1,084,416) with the first ball
    on the last rung and no audited segment, 1,551,872 (1,403,904) with
    no first rung either, 2,367,488 (1,775,616) with no tail either and
    4,349,952 (3,758,080) on the full rule alone, and a traced
    ``field-3d`` pass of perfbench 2,211,842 against 2,746,882,
    3,294,722, 4,012,034 and 7,692,290.  On gauss of widths 0.2-2 the
    values agree with the full rule to a few 1e-15; on the ``field-3d``
    points (4 seeds x 8 passes) the audited segment and the first ball
    on the first rung moved values by at most 2.1e-15 relative, and the
    finite best radii of flat maxima by at most 1.5e-8.  The coarse rules
    miss a kink until it covers about 8 degrees of a shell: the switch
    lands at 1.01-1.03 times the distance to the plane of |x1|, and on
    gauss plus |x1|, where the audited segment starts short of the plane,
    the audit hands on at 1.004-1.016 times it.  So on |maxaffine| and
    distance functions, which never become negligible, a value moves by
    up to about 2e-7 relative (0.007 of the full rule's own error there,
    1e-5 to 5e-5 against 32,768 directions; 0.003 with no audited
    segment).  Where a segment fails at its first shell, its first chunk
    is evaluated and dropped, the audited segment's only up to the
    failing audit: ``maxop.maximal`` at 8 random points to radius 5
    evaluated 0.7 % more than with no audited segment on a 3-piece
    |maxaffine| and 3.7 % less on the distance to 3 points.  A grid
    function with one nonzero sample, a small hat inside its
    ``domain``, moved by at most 1.5e-6 against the full rule's own
    8.2e-5 (against 32,768 directions, with averages up to 0.0138), so
    functions with a domain take the ladder too.  On a smooth background
    the hat first meets the shells between the nodes of both the 128 and
    the 32 directions, which agree there: without the audit the table
    moved by 0.12 of that error, with it by 0.0028.  With a second hat
    beyond the first, the hand-back keeps the table within 0.026 of that
    error, where a tail that never hands back moved it by 0.46 of it,
    and a tail on the 128 directions by 4.9 times it.
    """

    def __init__(self, f: DirectionalFunction, x, radii, quadrature=DEFAULT_QUADRATURE):
        n = f.dimension
        if len(radii) and radii[-1] > (limit := _radius_limit(n)):
            raise ValueError(
                f"radius {radii[-1]:g} is too large: the volume of a ball in "
                f"R^{n} overflows beyond a radius of about {limit:.4g}"
            )
        q = quadrature
        self.dirs_t, self.wdir = full = _shell_rule(n, q.radial_order, q.angular_order)
        # the checked rungs of the 3D ladder, coarsest first: (rule, check)
        # on the orders q // 2d and q // 4d, wherever the check's order is
        # at least 2; the rule of each segment between the ascending bounds,
        # which are unknown until the table is built (mode names the test
        # that ends the current segment, rung its rung, next the mode that
        # starts at the next shell); the table starts on the first rung
        self.rungs = []
        if n == 3:
            self.rungs = [
                (_shell_rule(3, q.radial_order // d, q.angular_order),
                 _shell_rule(3, q.radial_order // (2 * d), q.angular_order))
                for d in (4, 2) if q.radial_order >= 4 * d
            ]
        self.mode = self.next = None
        self.rung, self.bounds, self.rules, self.peak = 0, [], [full], 0.0
        if self.rungs:
            self.rules, self.mode = [self.rungs[0][0]], "check"
        # the coordinates of the largest chunk: _CHUNK_POINTS points, or one shell
        self.buf = np.empty(n * max(_CHUNK_POINTS, len(self.wdir)))
        self.vol = vol = unit_ball_volume(n)
        self.f, self.x, self.n = f, x, n
        self.cuts = sorted(np.abs(np.asarray(f.kinks) - x[0]).tolist()) if f.kinks else None
        R, d = f.zero_outside, math.hypot(*x)
        self.reach = None
        if R is not None and math.isfinite(d):
            margin = 1e-9 * (d + R)
            self.reach = np.array([d - R - margin, d + R + margin])

        self.table = out = np.empty(len(radii))
        start = int(len(radii) > 0 and radii[0] == 0.0)
        if start:
            out[0] = f(x)
        pos = radii[start:]
        if len(pos):
            # the unit annulus from 0 scaled by pos[0] (a subnormal radius
            # loses nothing), then one annulus per later radius
            first = self.annulus_integrals(np.zeros(1), np.ones(1), pos[0])[0]
            annuli = self.annulus_integrals(pos[:-1], pos[1:])
            out[start] = first / vol  # exactly ball_average's value
            # pos[0] ** n may underflow to 0, so the first radius is not divided by it
            totals = first * pos[0] ** n + np.cumsum(annuli)
            out[start + 1 :] = totals / (vol * pos[1:] ** n)
        if self.mode is not None:
            # no shell beyond the table was judged: from its largest radius on,
            # the full rule (a tail that would start beyond it never does)
            if self.mode != "full":
                self.bounds.append(float(radii[-1]) if len(radii) else 0.0)
                self.rules.append(full)
            self.mode = self.next = None
        self.radii, self.averages = radii.tolist(), out.tolist()

    @property
    def switch(self) -> float:
        """The bound where a 3D table first climbs to the full rule (0.0
        with one rule)."""
        return next((b for b, (_, w) in zip(self.bounds, self.rules[1:]) if w is self.wdir), 0.0)

    def __call__(self, r: float) -> float:
        k = bisect.bisect_right(self.radii, r) - 1
        if k < 0:
            raise ValueError(f"radius {r} lies below the tabulated radii")
        g = self.radii[k]
        if r == g:
            return self.averages[k]
        # the pieces of annulus_integrals on the one gap, laid out in floats
        pieces = max(1, math.ceil((r - g) / (_MAX_PIECE * r)))
        step = (r - g) / pieces
        a = [g + i * step for i in range(pieces)]
        if self.cuts is None:
            b = [u + step for u in a]
            b[-1] = r
        else:
            # the kinks strictly inside (g, r) cut the pieces further
            lo, hi = bisect.bisect_right(self.cuts, g), bisect.bisect_left(self.cuts, r)
            ends = sorted({*a, r, *self.cuts[lo:hi]})
            a, b = ends[:-1], ends[1:]
        half = [0.5 * (v - u) for u, v in zip(a, b)]
        s = np.array(
            [0.5 * (u + v) + h * t for u, v, h in zip(a, b, half) for t in _GL_NODE_LIST]
        )
        radial = self._radial(s, s).tolist()
        # summed in order, as annulus_integrals sums the pieces of a gap
        annulus = reduce(operator.add, map(operator.mul, half, radial))
        n, vol = self.n, self.vol
        return float((self.averages[k] * vol * g**n + annulus) / (vol * r**n))

    def annulus_integrals(self, lo, hi, scale=1.0) -> np.ndarray:
        """Integral of f over each annulus lo[k] < |y - x| < hi[k], hi > lo >= 0.

        In polar form this is the integral over s in [lo, hi] of s^(n-1)
        times the direction sum of f(x + s u).  Each gap is cut into
        equal pieces no wider than _MAX_PIECE of its outer radius, with a
        _GAP_NODES-node Gauss-Legendre rule on each piece
        (:meth:`piece_integrals`).  A 1D piece is cut again where x + s
        or x - s meets a kink of f.  With a scale, the annuli are
        scale * lo < |y - x| < scale * hi, integrals / scale^n.
        """
        pieces = np.maximum(1, np.ceil((hi - lo) / (_MAX_PIECE * hi))).astype(int)
        gap = np.repeat(np.arange(len(lo)), pieces)
        j = np.arange(len(gap)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        step = (hi - lo)[gap] / pieces[gap]
        a = lo[gap] + j * step
        b = np.where(j == pieces[gap] - 1, hi[gap], a + step)
        if self.cuts is not None and len(lo):
            # the gaps tile [lo[0], hi[-1]] (hi[k] = lo[k + 1]); a kink is
            # compared with the scaled range before its cut is scaled up
            cuts = np.array(self.cuts)
            cuts = cuts[(cuts > scale * lo[0]) & (cuts < scale * hi[-1])] / scale
            ends = np.union1d(np.append(a, hi[-1]), cuts)
            a, b = ends[:-1], ends[1:]
            gap = np.searchsorted(hi, a, side="right")
        integrals = self.piece_integrals(a, b, scale)
        return np.bincount(gap, weights=integrals, minlength=len(lo))

    def piece_integrals(self, a, b, scale=1.0) -> np.ndarray:
        """Integral over each piece a[i] < s < b[i] of s^(n-1) times the
        direction sum of f(x + scale s u), by the _GAP_NODES-node
        Gauss-Legendre rule.

        :meth:`_radial` evaluates the shells, as it does for a probe.
        """
        half = 0.5 * (b - a)
        s = ((0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES).ravel()
        return half * self._radial(s, s * scale)

    def _radial(self, s, scaled) -> np.ndarray:
        """The Gauss-Legendre sum over each piece of s^(n-1) times the
        direction sum of f(x + t u), t = scaled[i] the shell radius of the
        node s[i]; the nodes ascend, _GAP_NODES per piece.  Half the piece
        width is left to the caller.

        A 3D shell is summed on the rule of its segment between the
        ``bounds``, each segment by the one chunk loop of :meth:`_shells`.
        While the table is built, that loop's test ends the current
        segment, and the next starts on its rule where the last ended (in
        the next call if that was this call's end).  On a rung the loop
        also evaluates each chunk on the rung's check and, below the last
        rung, the chunk's audited shells on the next rung's rule, through
        this loop again in chunks of that rule's own size, so no
        evaluation outgrows the buffer.  The audited segment evaluates a
        chunk's audited shells on the full rule the same way, then on its
        own rule, and then the rows of its other shells up to the first
        audited shell that differs, so none past it.

        The shell points are evaluated _CHUNK_POINTS // m radii at a time,
        written into the profile's one coordinate buffer, allocated with it
        and reused by every call: one einsum writes every radius times every
        direction, then x is added.  A ``field-3d`` pass of perfbench took
        704 minor page faults, against 832 with a buffer per call of
        :meth:`_shells` and 1,408 with no tail.  At 2^15 points a 3D
        chunk is 16 radii x 2,048 directions, 768 KiB of
        coordinates, and stays near a 2 MiB L2 cache with the values and a
        batch evaluator's one-column temporaries.  On a 2-core Xeon with
        2 MiB of L2 per core, the 512-radius grid of 3D gauss at two points
        took 0.057-0.075 s at 2^15, 0.062-0.077 s at 2^14 and 0.068-0.090 s
        at 2^13 and 2^16 (medians of 30 interleaved repeats, four sweeps),
        with bitwise equal averages in 1D, 2D and 3D.  Below 2^13 a 3D chunk
        holds 2 radii, and the sums change in the last bits.

        When f declares ``zero_outside`` = R, only the radii whose shell
        can meet B(0, R), the ``reach`` |x| - R <= t <= |x| + R
        with a margin for rounding, are evaluated (the pieces ascend, as
        every caller builds them).  The others get the direction sum 0.0
        that their zero values would give.  A chunk keeps its shape: the
        values of a partly evaluated chunk are padded with zeros before
        the same matrix-vector product, so every sum is bitwise the one
        without R.  The shells beyond R are also where np.exp takes its
        slow underflow path (arguments below about -708): on the
        512-radius grid of 3D gauss(0.5) at two points they were 14 % of
        the evaluations and about 40 % of the time.
        """
        first, last = (0, len(s)) if self.reach is None else scaled.searchsorted(self.reach).tolist()
        shell = np.zeros(len(s))
        start = 0
        if self.mode is None:  # each segment between the bounds on its rule
            for bound, rule in zip(self.bounds, self.rules):
                stop = int(scaled.searchsorted(bound))
                self._shells(shell, scaled, start, stop, first, last, rule)
                start = stop
            self._shells(shell, scaled, start, len(s), first, last, self.rules[-1])
        while self.mode is not None and start < len(s):  # the table: each test places a bound
            if self.next is not None:
                self.bounds.append(float(scaled[start]))
                self.mode, self.next = self.next, None
                self.rules.append((self.dirs_t, self.wdir) if self.mode == "full" else self.rungs[self.rung][0])
            start = self._shells(shell, scaled, start, len(s), first, last, self.rules[-1], self.mode)
        return (s ** (self.n - 1) * shell).reshape(-1, _GAP_NODES) @ _GL_WEIGHTS

    def _shells(self, shell, scaled, start, stop, first, last, rule, mode=None) -> int:
        """Write the direction sums of f on the rule = (directions,
        weights) into shell[start:stop], chunk by chunk; the shells outside
        [first, last) keep 0.0.  Returns stop.

        While the table is built, mode names the test that ends the rule's
        segment (see the class): the index where it ends is returned, and
        ``next`` set to the mode that starts there.  "check" ends at the
        first shell where the rung's check disagrees, or below the last
        rung its audit, and hands on to the next rung or, after the last,
        to "audit"; "audit" ends at the first audited shell that
        disagrees with the full rule and hands on to "full"; "audit" and
        "full" end after a chunk whose every shell is negligible against
        the ``peak``, the largest |S| t^2 written so far, and hand on to
        "tail"; "tail" ends at the first shell that is not negligible and
        hands back to "check" on the last rung.  Every mode but "full" also
        ends at a sum that is not finite.  The shells of a cut chunk before
        its end are written as a later call with that stop lays them out.
        The chunks skipped outside [first, last) end no segment: their sums
        of exactly 0.0 agree and are negligible."""
        dirs_t, wdir = rule
        per_chunk = max(1, _CHUNK_POINTS // len(wdir))
        for i in range(start, stop, per_chunk):
            k = min(per_chunk, stop - i)
            lo, hi = max(i, first), min(i + k, last)
            if lo >= hi:  # f is 0.0 on every shell of the chunk
                continue
            d, rows = i + k, None
            if mode in ("check", "audit"):
                # the audit and the check first: their evaluations reuse the
                # buffer that the rows may still view
                if mode == "audit":
                    audit = (self.dirs_t, self.wdir)
                else:
                    audit = self.rungs[self.rung + 1][0] if self.rung + 1 < len(self.rungs) else None
                if audit:  # the first node of each piece on the next rule up
                    at = np.arange(lo + (-lo) % _GAP_NODES, hi, _GAP_NODES) - i
                    audited = np.zeros(len(at))
                    self._shells(audited, scaled[i + at], 0, len(at), 0, len(at), audit)
                if mode == "check":
                    check_t, check_w = self.rungs[self.rung][1]
                    checked = _chunk_sums(self._values(scaled[lo:hi], check_t), lo - i, k, check_w)
                elif len(at):  # the audited shells' rows next, and no row past the first that fails
                    heads = self._values(scaled[i + at], dirs_t)
                    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow
                        sums = heads @ wdir
                        failed = ~(np.abs(sums - audited) <= _COARSE_TOL * np.abs(sums))
                    if failed.any():
                        d = hi = i + int(at[np.argmax(failed)])
                        self.next = "full"
                    first_node = np.arange(lo, hi) % _GAP_NODES == 0
                    rows = np.empty((hi - lo, len(wdir)))
                    rows[first_node] = heads[: np.count_nonzero(first_node)]
                    if not first_node.all():
                        rows[~first_node] = self._values(scaled[lo:hi][~first_node], dirs_t)
            if rows is None:
                rows = self._values(scaled[lo:hi], dirs_t)
            sums = _chunk_sums(rows, lo - i, d - i, wdir)
            if mode is not None:
                with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow
                    weight = np.abs(sums) * scaled[i:d] ** 2
                    going = np.abs(sums) < math.inf
                    if mode == "check":
                        going &= np.abs(sums - checked) <= _COARSE_TOL * np.abs(sums)
                        if audit:
                            going[at] &= np.abs(sums[at] - audited) <= _COARSE_TOL * np.abs(sums[at])
                    elif mode == "tail":
                        going = weight <= _COARSE_TOL * self.peak
                if mode != "full" and not going.all():
                    d = i + int(np.argmin(going))
                    if mode == "tail":
                        self.next = "check"
                    elif mode == "audit":
                        self.next = "full"
                    elif audit:
                        self.next, self.rung = "check", self.rung + 1
                    else:
                        self.next = "audit"
                # a NaN sum (the table is NaN from there on) raises no peak and is not negligible
                self.peak = max(self.peak, float(np.max(weight[: d - i], initial=0.0)))
                if mode in ("audit", "full") and self.next is None and np.all(weight <= _COARSE_TOL * self.peak):
                    self.next = "tail"
            if d - i < len(sums):  # the segment ends inside the chunk
                sums = _chunk_sums(rows[: max(0, d - lo)], lo - i, d - i, wdir)
            shell[i:d] = sums
            if self.next is not None:
                return d
        return stop

    def _values(self, radii, dirs_t) -> np.ndarray:
        """f at x + t u for each t in radii and each direction u, a column
        of dirs_t, as a (radii, directions) array; the coordinates are
        written into the profile's buffer."""
        n, m = dirs_t.shape
        # coordinate-major (n, radii, m): the transpose of an (n, points)
        # array, so per-coordinate work in a batch evaluator (sums of
        # squares, differences) reads unit strides
        coords = self.buf[: n * len(radii) * m].reshape(n, len(radii), m)
        np.einsum("k,cm->ckm", radii, dirs_t, out=coords)
        coords += self.x[:, None, None]
        return self.f.evaluate_many(coords.reshape(n, -1).T).reshape(-1, m)


def _chunk_sums(rows, offset: int, k: int, wdir) -> np.ndarray:
    """The direction sums rows @ wdir of a chunk of k shells, of which rows
    holds those from offset on; the others, where f is 0.0, are padded
    with zeros, so the product keeps the chunk's shape."""
    if len(rows) < k:
        padded = np.zeros((k, rows.shape[1]))
        padded[offset : offset + len(rows)] = rows
        rows = padded
    return rows @ wdir


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
    proj = dirs @ theta
    # surface element r^(n-1) combines with 1/(omega_n r^n) to 1/(omega_n r)
    return float((w * proj) @ vals) / (unit_ball_volume(f.dimension) * r)


# ---------------------------------------------------------------------------
# builtin function constructors


def make_tent() -> DirectionalFunction:
    """1D tent max(0, 1 - |y|): Lipschitz 1, kinks at -1, 0, 1, exactly 0
    for |y| >= 1."""

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
        kinks=(-1.0, 0.0, 1.0),
        zero_outside=1.0,
    )


def make_maxaffine(coeffs, consts) -> DirectionalFunction:
    """max_k (a_k . x + c_k): Lipschitz max|a_k|, exact active-set oracle."""
    A = np.atleast_2d(np.asarray(coeffs, dtype=float))
    c = np.asarray(consts, dtype=float)
    if A.shape[0] != c.shape[0]:
        raise ValueError("one constant per affine piece required")
    n = A.shape[1]
    kinks = ()
    if n == 1:  # where two pieces cross, or one crosses the zero piece
        a0, c0 = np.append(A[:, 0], 0.0), np.append(c, 0.0)
        i, j = np.triu_indices(len(a0), 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            at = (c0[j] - c0[i]) / (a0[i] - a0[j])
        kinks = tuple(np.unique(at[np.isfinite(at)]).tolist())

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
        kinks=kinks,
    )


def make_abs() -> DirectionalFunction:
    f = make_maxaffine([[1.0], [-1.0]], [0.0, 0.0])
    return replace(f, label="abs")


def make_gauss(s: float, n: int = 1) -> DirectionalFunction:
    """exp(-|x|^2 / (2 s^2)): smooth, with a gradient oracle.

    The effective support, half-width 6s (f < 1.6e-8 beyond), sizes the
    radius search; f is exactly 0.0 only beyond ``zero_outside`` =
    sqrt(1500) s, about 38.7 s, where the exponent reaches -750 (exp
    rounds to 0.0 below -745.1).  A width above about 3.4e152 is refused:
    |x|^2 would overflow inside that radius, and above 1.3e154 s^2 itself
    overflows, leaving f 1 near 0 and NaN far out.
    """
    # below about 7.5e-155, 1/s^2 overflows (and s^2 underflows to 0)
    if not (s > 0 and s * s > 0 and math.isfinite(1.0 / (s * s))):
        raise ValueError(f"gauss width must be > 0 with a finite 1/s^2, got {s}")
    zero_outside = math.sqrt(1500.0) * s
    if not math.isfinite(zero_outside * zero_outside):
        raise ValueError(
            f"gauss width {s} is too wide: |x|^2 overflows inside its zero "
            "radius sqrt(1500) s (the width may be at most about 3.4e152)"
        )
    inv = 1.0 / (s * s)

    # |x|^2 overflows to inf beyond about 1.34e154, outside the zero
    # radius, where exp(-inf) gives the right 0.0: numpy is told not to warn
    def ev(x):
        with np.errstate(over="ignore"):
            return math.exp(-0.5 * inv * float(x @ x))

    def batch(pts):
        # column by column: no (N, n) temporary, the same additions in the
        # same order as np.sum(pts * pts, axis=1)
        with np.errstate(over="ignore"):
            q = np.square(pts[:, 0])
            for j in range(1, n):
                q += np.square(pts[:, j])
        q *= -0.5 * inv
        return np.exp(q, out=q)

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
        zero_outside=zero_outside,
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
