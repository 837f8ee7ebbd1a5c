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
from typing import Callable, Optional, Sequence, Tuple

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
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dimension,):
            raise ValueError(
                f"expected a point in R^{self.dimension}, got shape {x.shape}"
            )
        return float(self.evaluator(x))

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

    def with_oracle(self, derivative) -> "DirectionalFunction":
        return replace(self, derivative=derivative)


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
# grid-sampled functions


def _finite_point(x) -> np.ndarray:
    """x as a 1D float array; a point with a non-finite coordinate is refused."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"point {x.tolist()} must have finite coordinates")
    return x


def _grid_points(lo, hi, resolution) -> np.ndarray:
    """The (m, n) nodes of the box grid [lo, hi], row-major."""
    if not len(lo) == len(hi) == len(resolution):
        raise ValueError(
            f"grid box corners have {len(lo)} and {len(hi)} coordinates "
            f"but the resolution has {len(resolution)} entries"
        )
    if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
        raise ValueError(f"grid box corners {lo} and {hi} must be finite")
    axes = [np.linspace(lo[i], hi[i], r) for i, r in enumerate(resolution)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


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
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if np.any(hi <= lo):
            raise ValueError("degenerate box: need hi > lo on every axis")
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

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        from scipy.interpolate import RegularGridInterpolator

        shaped = self.samples.reshape(self.resolution)
        interp = RegularGridInterpolator(
            self.axes(), shaped, method="linear", bounds_error=True
        )
        return interp(np.atleast_2d(points))

    def as_function(self) -> DirectionalFunction:
        from scipy.interpolate import RegularGridInterpolator

        shaped = self.samples.reshape(self.resolution)
        interp = RegularGridInterpolator(
            self.axes(), shaped, method="linear", bounds_error=True
        )
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        return DirectionalFunction(
            evaluator=lambda x: float(interp(x[None, :])[0]),
            dimension=self.dimension,
            batch_evaluator=lambda pts: np.asarray(interp(pts), dtype=float),
            support=(lo, hi),
            label="grid",
        )

    @classmethod
    def from_function(cls, f: DirectionalFunction, lo, hi, resolution):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        resolution = tuple(int(r) for r in resolution)
        vals = f.evaluate_many(_grid_points(lo, hi, resolution))
        return cls(tuple(lo), tuple(hi), resolution, vals)

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
    indicator weighting): Gauss-Legendre radially with the r^(n-1)
    Jacobian folded into the weights, equal-angle azimuthally, and
    Gauss-Legendre in the polar cosine for n = 3.  Sphere rules use
    ``sphere_nodes`` total nodes.  Weights are normalized so the ball
    rule integrates 1 to the exact ball volume and the sphere rule to
    the exact surface area.
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
def _ball_rule(n: int, q: int, ang: int):
    t, wt = np.polynomial.legendre.leggauss(q)
    rho = 0.5 * (t + 1.0)  # radial nodes on [0, 1]
    wrho = 0.5 * wt
    if n == 1:
        # composite midpoint: |f| integrands have kinks, where Gauss rules
        # stall around 1e-4; the dense low-order rule reaches ~1e-7
        m = 128 * q
        nodes = (-1.0 + (2.0 * np.arange(m) + 1.0) / m)[:, None]
        w = np.full(m, 2.0 / m)
        return nodes, w
    if n == 2:
        phi = 2.0 * math.pi * (np.arange(ang) + 0.5) / ang
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        nodes = rho[:, None, None] * u[None, :, :]
        w = (wrho * rho)[:, None] * (2.0 * math.pi / ang)
        return nodes.reshape(-1, 2), np.broadcast_to(w, (q, ang)).ravel().copy()
    if n == 3:
        dirs, wdir = _sphere_rule(3, 2 * q * q)
        nodes = rho[:, None, None] * dirs[None, :, :]
        w = (wrho * rho**2)[:, None] * wdir[None, :]
        return nodes.reshape(-1, 3), w.ravel().copy()
    raise ValueError(f"unsupported dimension {n} (1-3 only)")


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
    """Average of f over the ball B(x, r); f(x) itself when r = 0."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    if r == 0.0:
        v = f(x)
        if not math.isfinite(v):
            raise NumericDomainError(x, v)
        return v
    if f.dimension == 1:
        # adaptive: integrands with kinks at unknown positions need
        # subdivision to reach the advertised 1e-6 field accuracy
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
    nodes, w = quadrature.ball_rule(f.dimension)
    pts = x[None, :] + r * nodes
    vals = f.evaluate_many(pts)
    _check_finite(vals, pts)
    return float(w @ vals) / unit_ball_volume(f.dimension)


def ball_average_radii(
    f: DirectionalFunction,
    x,
    radii: np.ndarray,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> np.ndarray:
    """ball_average at many radii in one batched evaluation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    radii = np.asarray(radii, dtype=float)
    nodes, w = quadrature.ball_rule(f.dimension)
    pts = x[None, None, :] + radii[:, None, None] * nodes[None, :, :]
    flat = pts.reshape(-1, f.dimension)
    vals = f.evaluate_many(flat)
    _check_finite(vals, flat)
    vals = vals.reshape(len(radii), -1)
    out = vals @ w / unit_ball_volume(f.dimension)
    zero = radii == 0.0
    if np.any(zero):
        out[zero] = f(x)
    return out


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r}")
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


def make_infconv(u: DirectionalFunction, t: float) -> DirectionalFunction:
    """Moreau envelope inf_y u(y) + |x - y|^2 / (2t) of a builtin u."""
    if t <= 0:
        raise ValueError(f"infconv parameter must be > 0, got {t}")
    n = u.dimension
    K = u.lipschitz if u.lipschitz is not None else 10.0
    reach = K * t + 1.0

    def ev(x):
        from scipy.optimize import minimize, minimize_scalar

        if n == 1:
            lo, hi = float(x[0] - reach), float(x[0] + reach)
            ys = np.linspace(lo, hi, 257)
            vals = u.evaluate_many(ys[:, None]) + (x[0] - ys) ** 2 / (2.0 * t)
            i = int(np.argmin(vals))
            a = ys[max(i - 1, 0)]
            b = ys[min(i + 1, len(ys) - 1)]
            res = minimize_scalar(
                lambda y: u(np.array([y])) + (x[0] - y) ** 2 / (2.0 * t),
                bounds=(a, b),
                method="bounded",
                options={"xatol": 1e-12},
            )
            return min(float(res.fun), float(vals[i]))
        obj = lambda y: u(y) + float((x - y) @ (x - y)) / (2.0 * t)  # noqa: E731
        res = minimize(obj, x, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14})
        return float(res.fun)

    sup = None
    if u.support is not None:
        sup = (u.support[0] - reach, u.support[1] + reach)
    return DirectionalFunction(
        evaluator=ev,
        dimension=n,
        lipschitz=u.lipschitz,
        support=sup,
        label=f"infconv({u.label},{t})",
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
        return make_infconv(inner, t)
    raise SpecParseError(
        f"unknown builtin {name!r}; available: {', '.join(BUILTINS)}", at
    )
