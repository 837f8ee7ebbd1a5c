"""Worked special-function classes: distance functions to closed sets
(with nearest-point sets and the medial axis) and infimal convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .funcspace import (
    DirectionalFunction,
    _box_grid,
    _check_finite,
    _direction,
    _point,
)

__all__ = [
    "ClosedSetModel",
    "distance_function",
    "nearest_set",
    "distance_directional_derivative",
    "MedialPoint",
    "medial_scan",
    "medial_to_csv",
    "inf_convolution",
]


@dataclass(frozen=True)
class ClosedSetModel:
    """A closed set A given as finite points or a polygon boundary."""

    kind: str  # "points" | "polygon"
    points: Optional[np.ndarray] = None  # (k, n) for points
    vertices: Optional[np.ndarray] = None  # (k, 2), the last joins the first

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
        for p in pts:
            _point(p, pts.shape[1])
        return cls("points", points=pts)

    @classmethod
    def from_polygon(cls, vertices) -> "ClosedSetModel":
        verts = np.atleast_2d(np.asarray(vertices, dtype=float))
        if verts.shape[0] < 3 or verts.shape[1] != 2:
            raise ValueError("polygon needs >= 3 2D vertices (closed loop)")
        for v in verts:
            _point(v, 2)
        edges = np.roll(verts, -1, axis=0) - verts
        if np.any(np.sum(edges * edges, axis=1) == 0.0):
            raise ValueError("polygon has a zero-length edge (repeated vertex)")
        return cls("polygon", vertices=verts)

    def candidate_points(self) -> np.ndarray:
        if self.kind == "points":
            return self.points
        return self.vertices


_BLOCK = 1024  # query points per candidate evaluation, bounds memory
_ON_SET_TOL = 1e-9  # a query point this close to the set lies on it
_NEAREST_REL_TOL = 1e-6  # nearest points within this relative distance gap


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


def nearest_set(A: ClosedSetModel, x) -> Tuple[float, List[np.ndarray]]:
    """Distance to A and every nearest point within _NEAREST_REL_TOL of it.

    Exact enumeration over points and polygon edges.  x must lie off the
    set.
    """
    x = _point(x, A.dimension)
    cands, d = _candidates(A, x[None, :])
    dmin = float(np.min(d))
    if dmin <= _ON_SET_TOL:
        raise ValueError(
            f"point {tuple(x)} lies on the set (distance {dmin:.3e}); "
            "the distance function is defined off the set only"
        )
    return dmin, _close_points(cands[0], d[0], dmin, _NEAREST_REL_TOL)


def distance_directional_derivative(A: ClosedSetModel, x, theta) -> float:
    """min over nearest points y of theta . (x - y)/|x - y|, theta taken
    as a unit vector."""
    n = A.dimension
    return _distance_derivative(A, _point(x, n), _direction(theta, n))


def _distance_derivative(A: ClosedSetModel, x, theta) -> float:
    """The derivative formula for a unit theta, the distance oracle."""
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

    pts = A.candidate_points()
    lo = pts.min(axis=0) - 1.0
    hi = pts.max(axis=0) + 1.0
    return DirectionalFunction(
        evaluator=lambda x: float(np.min(_candidates(A, x[None, :])[1])),
        dimension=A.dimension,
        derivative=lambda x, theta: _distance_derivative(A, x, theta),
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


_TIE_FACTOR = 0.6  # medial ties: distances within this many cells
_ANGULAR_DEDUP = 1e-4  # radians; nearest points closer, seen from x, count once


def medial_scan(A: ClosedSetModel, box, resolution) -> List[MedialPoint]:
    """Grid points annotated with their nearest-point multiplicity.

    Ties are counted with an absolute tolerance of _TIE_FACTOR * cell
    (grid arithmetic never produces exact ties) and nearest points
    closer than _ANGULAR_DEDUP radians apart, as seen from x, count once.
    Multiplicity >= 2 constitutes the detected medial axis.
    """
    pts, cell = _box_grid(box, resolution, A.dimension, 2)
    tie = _TIE_FACTOR * cell

    out = []
    for block in _blocks(pts):
        cands, dist = _candidates(A, block)
        cands = np.broadcast_to(cands, dist.shape + cands.shape[-1:])
        for x, c, d, dmin in zip(block, cands, dist, np.min(dist, axis=1)):
            dmin = float(dmin)
            if dmin <= _ON_SET_TOL:
                continue  # on the set
            dirs = []
            for y in _close_points(c, d, dmin, tie / dmin):
                u = (x - y) / np.linalg.norm(x - y)
                if all(
                    math.acos(min(1.0, max(-1.0, float(u @ v)))) > _ANGULAR_DEDUP
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

_SPEC_NODES = 257  # y-grid nodes of the infconv spec, in total in nD


def _envelope_min(obj, ys, vals, shape, lo, hi, cell, tol: float = 1e-9):
    """min of obj over the y-box [lo, hi], given its values vals on the
    row-major box grid ys (m, n) of the given shape and largest cell width.

    Each grid-local minimum (a node no higher than its axis neighbours)
    within a band of the best node value seeds one local descent: Brent's
    bounded method on the neighbour bracket in 1D, Nelder-Mead clipped to
    the box in nD; a seed lower than its descent's end is kept instead.
    The band is the largest value step between axis neighbours, at least
    10 tol: the node nearest the true minimizer, and the grid-local
    minimum it descends to, lie at most about one step above the minimum.

    Returns (value, minimizers, boundary_flag): the distinct descent ends
    within tol of the value, and whether one lies within 2 cells of the
    box boundary.
    """
    from scipy.optimize import fminbound, minimize

    n = ys.shape[1]
    V = vals.reshape(shape)
    local = np.ones(V.shape, dtype=bool)
    band = 10.0 * tol
    for ax in range(n):
        lower = (slice(None),) * ax + (slice(None, -1),)
        upper = (slice(None),) * ax + (slice(1, None),)
        step = V[upper] - V[lower]
        local[lower] &= step >= 0.0
        local[upper] &= step <= 0.0
        band = max(band, abs(step).max())
    seeds = np.flatnonzero(local.ravel() & (vals <= vals.min() + band))

    refined = []
    for i in seeds.tolist():
        if n == 1:
            res = fminbound(
                lambda s: obj(np.array([s])), ys[max(i - 1, 0), 0],
                ys[min(i + 1, len(ys) - 1), 0], xtol=1e-12, full_output=True, disp=0,
            )
            y, v = np.array([res[0]]), float(res[1])
        else:
            res = minimize(
                obj, ys[i], method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14}
            )
            y = np.clip(res.x, lo, hi)
            v = float(obj(y))
        # the seed is no higher than its bracket ends, which Brent never
        # evaluates and where a box-edge minimum sits
        refined.append((v, y) if v < vals[i] else (float(vals[i]), ys[i]))

    best = min(v for v, _ in refined)
    minimizers: List[np.ndarray] = []
    for v, y in refined:
        if v <= best + tol and all(
            np.linalg.norm(y - m) > 1e-6 * (1.0 + np.linalg.norm(y)) for m in minimizers
        ):
            minimizers.append(y)
    edge = 2.0 * cell
    boundary = any(min(*(m - lo), *(hi - m)) < edge for m in minimizers)
    return best, minimizers, boundary


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
    n = u.dimension
    x = _point(x, n)
    ys, cell = _box_grid(y_box, y_resolution, n, 2)
    vals = u.evaluate_many(ys) + np.array([coupling(x, y) for y in ys])
    _check_finite(vals, ys)
    obj = lambda y: u(y) + float(coupling(x, y))  # noqa: E731
    # the first and last grid nodes are the box corners
    best, minimizers, boundary = _envelope_min(
        obj, ys, vals, (int(y_resolution),) * n, ys[0], ys[-1], cell, tol
    )
    if strict and boundary:
        raise ValueError(
            "infimal convolution minimum attained at the y-box boundary; "
            "enlarge the box"
        )
    return best, minimizers, boundary


def make_infconv(u: DirectionalFunction, t: float) -> DirectionalFunction:
    """Moreau envelope inf_y u(y) + |x - y|^2 / (2t) of a builtin u.

    Minimised on the box x +- (K t + 1), K the Lipschitz bound of u (10
    when unknown), from a grid of about _SPEC_NODES nodes in all.
    """
    if t <= 0:
        raise ValueError(f"infconv parameter must be > 0, got {t}")
    n = u.dimension
    reach = (10.0 if u.lipschitz is None else u.lipschitz) * t + 1.0
    shape = (max(2, round(_SPEC_NODES ** (1.0 / n))),) * n
    # the grid moves with x, so its coupling values are fixed
    offsets, cell = _box_grid((np.full(n, -reach), np.full(n, reach)), shape, n, 2)
    coupling = np.einsum("ij,ij->i", offsets, offsets) / (2.0 * t)

    def ev(x):
        def obj(y):
            d = x - y
            return u.evaluator(y) + float(d.dot(d)) / (2.0 * t)

        ys = x + offsets
        vals = u.evaluate_many(ys) + coupling
        return _envelope_min(obj, ys, vals, shape, x - reach, x + reach, cell)[0]

    return DirectionalFunction(
        evaluator=ev,
        dimension=n,
        lipschitz=u.lipschitz,
        support=None if u.support is None else (u.support[0] - reach, u.support[1] + reach),
        label=f"infconv({u.label},{t})",
    )
