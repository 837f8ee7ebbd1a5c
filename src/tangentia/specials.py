"""Worked special-function classes: distance functions to closed sets
(with nearest-point sets and the medial axis), infimal convolution, and
pointwise maxima of smooth families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .funcspace import DirectionalFunction, _finite_point, _grid_points

__all__ = [
    "ClosedSetModel",
    "distance_function",
    "nearest_set",
    "distance_directional_derivative",
    "MedialPoint",
    "medial_scan",
    "medial_to_csv",
    "inf_convolution",
    "MaxFamily",
    "max_family_derivative",
]


@dataclass(frozen=True)
class ClosedSetModel:
    """A closed set A given as finite points or a polygon boundary."""

    kind: str  # "points" | "polygon"
    points: Optional[np.ndarray] = None  # (k, n) for points
    vertices: Optional[np.ndarray] = None  # (k, 2), the last joins the first
    query_tol: float = 1e-9

    @property
    def dimension(self) -> int:
        if self.kind == "polygon":
            return 2
        return self.points.shape[1]

    @classmethod
    def from_points(cls, pts) -> "ClosedSetModel":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.size == 0:
            raise ValueError("the set must be nonempty")
        return cls("points", points=pts)

    @classmethod
    def from_polygon(cls, vertices) -> "ClosedSetModel":
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("polygon needs >= 3 2D vertices (closed loop)")
        edges = np.roll(verts, -1, axis=0) - verts
        if np.any(np.sum(edges * edges, axis=1) == 0.0):
            raise ValueError("polygon has a zero-length edge (repeated vertex)")
        return cls("polygon", vertices=verts)

    def candidate_points(self) -> np.ndarray:
        if self.kind == "points":
            return self.points
        return self.vertices


_BLOCK = 1024  # query points per candidate evaluation, bounds memory


def _blocks(X: np.ndarray):
    # one block at least, so that an empty X gives empty distances
    return (X[s : s + _BLOCK] for s in range(0, max(len(X), 1), _BLOCK))


def _candidates(A: ClosedSetModel, X: np.ndarray):
    """Candidates and distances (p, k) of the query points X (p, n).

    The candidates are the set's points, shape (1, k, n) and shared by
    every query point, or each query point's clamped projection onto every
    polygon edge, shape (p, k, n).
    """
    if A.kind == "polygon":
        a = A.vertices
        ab = np.roll(a, -1, axis=0) - a
        t = np.sum((X[:, None, :] - a) * ab, axis=-1)
        t = np.clip(t / np.sum(ab * ab, axis=-1), 0.0, 1.0)
        cands = a + t[:, :, None] * ab
    else:
        cands = A.points[None]
    diff = cands - X[:, None, :]
    return cands, np.sqrt(np.einsum("pkn,pkn->pk", diff, diff))


def _close_points(cands, d, dmin: float, rel_tol: float) -> List[np.ndarray]:
    close = cands[d <= dmin * (1.0 + rel_tol)]
    # dedup coincident candidates (shared polygon vertices etc.)
    out: List[np.ndarray] = []
    for p in close:
        if all(np.linalg.norm(p - q) > 1e-9 * (1.0 + dmin) for q in out):
            out.append(p)
    return out


def nearest_set(
    A: ClosedSetModel, x, rel_tol: float = 1e-6
) -> Tuple[float, List[np.ndarray]]:
    """Distance to A and every nearest point within relative tolerance.

    Exact enumeration over points and polygon edges.  x must lie off the
    set.
    """
    x = _finite_point(x)
    cands, d = _candidates(A, x[None, :])
    dmin = float(np.min(d))
    if dmin <= A.query_tol:
        raise ValueError(
            f"point {tuple(x)} lies on the set (distance {dmin:.3e}); "
            "the distance function is defined off the set only"
        )
    return dmin, _close_points(cands[0], d[0], dmin, rel_tol)


def distance_directional_derivative(A: ClosedSetModel, x, theta) -> float:
    """min over nearest points y of theta . (x - y)/|x - y|."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    _, nearest = nearest_set(A, x)
    vals = []
    for y in nearest:
        u = x - y
        vals.append(float(theta @ u) / float(np.linalg.norm(u)))
    return min(vals)


def distance_function(A: ClosedSetModel) -> DirectionalFunction:
    """The 1-Lipschitz distance-to-A as a DirectionalFunction."""

    def batch(pts):
        return np.concatenate(
            [np.min(_candidates(A, b)[1], axis=1) for b in _blocks(pts)]
        )

    def deriv(x, theta):
        return distance_directional_derivative(A, x, theta)

    pts = A.candidate_points()
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    return DirectionalFunction(
        evaluator=lambda x: float(np.min(_candidates(A, x[None, :])[1])),
        dimension=A.dimension,
        derivative=deriv,
        lipschitz=1.0,
        batch_evaluator=batch,
        support=(lo, hi),
        label=f"dist[{A.kind}]",
    )


# ---------------------------------------------------------------------------
# medial axis by grid scan


@dataclass(frozen=True)
class MedialPoint:
    point: Tuple[float, ...]
    distance: float
    multiplicity: int


def medial_scan(
    A: ClosedSetModel,
    box,
    resolution,
    tie_factor: float = 0.6,
    angular_dedup: float = 1e-4,
) -> List[MedialPoint]:
    """Grid points annotated with their nearest-point multiplicity.

    Ties are counted with an absolute tolerance of tie_factor * cell
    (grid arithmetic never produces exact ties) and nearest points
    closer than angular_dedup radians apart, as seen from x, count once.
    Multiplicity >= 2 constitutes the detected medial axis.
    """
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in box)
    if np.isscalar(resolution):
        resolution = (int(resolution),) * A.dimension
    if min(resolution) < 2:
        raise ValueError("need at least 2 grid points per axis")
    pts = _grid_points(lo, hi, resolution)
    cell = float(np.max((hi - lo) / (np.array(resolution) - 1)))
    tie = tie_factor * cell

    out = []
    for block in _blocks(pts):
        cands, dist = _candidates(A, block)
        cands = np.broadcast_to(cands, dist.shape + cands.shape[-1:])
        for x, c, d, dmin in zip(block, cands, dist, np.min(dist, axis=1)):
            dmin = float(dmin)
            if dmin <= A.query_tol:
                continue  # on the set
            dirs = []
            for y in _close_points(c, d, dmin, tie / dmin):
                u = (x - y) / np.linalg.norm(x - y)
                if all(
                    math.acos(min(1.0, max(-1.0, float(u @ v)))) > angular_dedup
                    for v in dirs
                ):
                    dirs.append(u)
            out.append(MedialPoint(tuple(x), dmin, len(dirs)))
    return out


def medial_to_csv(points: Sequence[MedialPoint], path, dimension: int):
    cols = [f"x{i + 1}" for i in range(dimension)] + ["dist", "multiplicity"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for p in points:
            row = [f"{c:.12g}" for c in p.point]
            row += [f"{p.distance:.12g}", str(p.multiplicity)]
            fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# infimal convolution


def inf_convolution(
    u: DirectionalFunction,
    coupling: Callable[[np.ndarray, np.ndarray], float],
    x,
    y_box,
    y_resolution: int = 257,
    tol: float = 1e-9,
    strict: bool = False,
):
    """min over the y-box of u(y) + coupling(x, y), grid plus local descent.

    Returns (value, minimizer list, boundary_flag); a minimum attained
    on the box boundary means the box was too small, which is an error
    in strict mode.
    """
    from scipy.optimize import minimize

    x = _finite_point(x)
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in y_box)
    n = u.dimension
    ys = _grid_points(lo, hi, (y_resolution,) * n)
    vals = u.evaluate_many(ys) + np.array([coupling(x, y) for y in ys])

    obj = lambda y: u(y) + float(coupling(x, y))  # noqa: E731
    vmin = float(np.min(vals))
    cell = float(np.max((hi - lo) / (y_resolution - 1)))
    seeds = ys[vals <= vmin + max(10.0 * tol, cell)]
    minimizers: List[np.ndarray] = []
    best = vmin
    refined = []
    for s in seeds:
        res = minimize(
            obj,
            s,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14},
        )
        y = np.clip(res.x, lo, hi)
        refined.append((float(obj(y)), y))
    for v, _ in refined:
        best = min(best, v)
    for v, y in refined:
        if v <= best + tol and all(
            np.linalg.norm(y - m) > 1e-6 * (1.0 + np.linalg.norm(y))
            for m in minimizers
        ):
            minimizers.append(y)
    boundary = any(
        np.any(np.abs(m - lo) < 2.0 * cell) or np.any(np.abs(m - hi) < 2.0 * cell)
        for m in minimizers
    )
    if strict and boundary:
        raise ValueError(
            "infimal convolution minimum attained at the y-box boundary; "
            "enlarge the box"
        )
    return best, minimizers, boundary


# ---------------------------------------------------------------------------
# pointwise maxima of smooth families


@dataclass(frozen=True)
class MaxFamily:
    """Finitely many C1 members with gradient oracles.

    Member gradients are spot-checked against central differences at
    construction (10 seeded probes, 1e-5 agreement).
    """

    members: Tuple[Callable[[np.ndarray], float], ...]
    gradients: Tuple[Callable[[np.ndarray], np.ndarray], ...]
    dimension: int
    active_tol: float = 1e-9

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must be nonempty")
        if len(self.members) != len(self.gradients):
            raise ValueError("need one gradient per member")
        rng = np.random.default_rng(0)
        probes = rng.uniform(-1.0, 1.0, size=(10, self.dimension))
        h = 1e-6
        eye = np.eye(self.dimension)
        for fk, gk in zip(self.members, self.gradients):
            for p in probes:
                g = np.asarray(gk(p), dtype=float)
                fd = np.array(
                    [
                        (fk(p + h * eye[i]) - fk(p - h * eye[i])) / (2.0 * h)
                        for i in range(self.dimension)
                    ]
                )
                if np.max(np.abs(g - fd)) > 1e-5 * (1.0 + np.max(np.abs(g))):
                    raise ValueError(
                        "member gradient disagrees with finite differences "
                        f"at probe {tuple(p)}"
                    )

    def value(self, x) -> float:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return max(float(fk(x)) for fk in self.members)

    def as_function(self, with_oracle: bool = True) -> DirectionalFunction:
        deriv = None
        if with_oracle:
            deriv = lambda x, th: max_family_derivative(self, x, th)  # noqa: E731
        return DirectionalFunction(
            evaluator=lambda x: self.value(x),
            dimension=self.dimension,
            derivative=deriv,
            label="maxfamily",
        )


def max_family_derivative(F: MaxFamily, x, theta) -> float:
    """max over the active members of grad f_k(x) . theta."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = np.array([fk(x) for fk in F.members])
    top = float(np.max(vals))
    active = np.flatnonzero(vals >= top - F.active_tol * (1.0 + abs(top)))
    return max(float(np.asarray(F.gradients[k](x)) @ theta) for k in active)
