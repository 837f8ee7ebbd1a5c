"""Difference quotients, one-sided directional derivatives, the
non-differentiability measure over semi-linear subspaces, the maximal
differentiability degree, and grid scans for the singular locus.

The measure of non-differentiability at x over a semi-linear W is the
inf over linear maps L of the worst relative error |f(x+w)-f(x)-L(w)|/|w|
for small w in W.  Numerically this becomes, per radius rung, a minimax
(Chebyshev) linear fit over sampled unit directions of W; the reported
value is the smallest rung's residual (no extrapolation to 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import LadderDivergenceError
from .funcspace import DirectionalFunction, _box_grid, _direction, _point
from .semilinear import (
    SemiLinearSubspace,
    full_space,
    halfspace,
    linear_subspace,
    sample_unit_vectors,
    semilinear,
)

__all__ = [
    "DEFAULT_LADDER",
    "minimax_fit",
    "difference_quotient",
    "quotient_ladder",
    "directional_derivative",
    "TauEstimate",
    "tau",
    "GammaBudget",
    "GammaEstimate",
    "gamma",
    "kink_normals",
    "ScanPoint",
    "singular_scan",
    "scan_to_csv",
]


DEFAULT_LADDER = 0.5 * 0.5 ** np.arange(12)


# ---------------------------------------------------------------------------
# minimax linear fitting: a certified least-squares fit, else one LP

# least-squares optimality gap (relative to 1 + max|y|) accepted as exact
_CERTIFY_TOL = 1e-11


def minimax_fit(A: np.ndarray, y: np.ndarray):
    """Minimize over c the uniform error max_i |y_i - A_i . c|.

    The least-squares fit is returned when its max residual is within
    _CERTIFY_TOL of its mean residual, a lower bound on the optimum
    (exact and equioscillating data).  Otherwise one Chebyshev linear
    program corrects that fit, on its residuals scaled to unit max so
    that the solver's absolute tolerances act relative to them; the
    better of the two fits is returned.  Returns (coefficients, max
    residual).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = A.shape
    if d == 0 or m == 0:
        return np.zeros(d), float(np.max(np.abs(y))) if m else 0.0
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ c
    best = float(np.max(np.abs(r)))
    gap = best - float(np.mean(np.abs(r)))
    if gap <= _CERTIFY_TOL * (1.0 + float(np.max(np.abs(y)))):
        return c, best
    from scipy.optimize import linprog

    ones = np.ones((m, 1))
    lp = linprog(
        np.concatenate([np.zeros(d), [1.0]]),
        A_ub=np.block([[A, -ones], [-A, -ones]]),
        b_ub=np.concatenate([r, -r]) / best,
        bounds=[(None, None)] * d + [(0.0, None)],
    )
    if lp.status == 0:
        c_lp = c + best * lp.x[:d]
        res_lp = float(np.max(np.abs(y - A @ c_lp)))
        if res_lp < best:
            return c_lp, res_lp
    return c, best


# ---------------------------------------------------------------------------
# quotients and directional derivatives


def difference_quotient(f: DirectionalFunction, x, h) -> float:
    """(f(x+h) - f(x)) / |h|."""
    x = _point(x, f.dimension)
    h = _point(h, f.dimension)
    nh = float(np.linalg.norm(h))
    if nh == 0.0:
        raise ValueError("h must be nonzero")
    return (f(x + h) - f(x)) / nh


def _positive_tol(tol: float):
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def quotient_ladder(f: DirectionalFunction, x, theta, ladder=None) -> np.ndarray:
    """Difference quotients along theta at each ladder radius."""
    x = _point(x, f.dimension)
    theta = _direction(theta, f.dimension)
    ladder = DEFAULT_LADDER if ladder is None else np.asarray(ladder, dtype=float)
    fx = f(x)
    pts = x[None, :] + ladder[:, None] * theta[None, :]
    return (f.evaluate_many(pts) - fx) / ladder


@dataclass(frozen=True)
class DerivativeEstimate:
    value: float
    numeric: float
    from_oracle: bool
    quotients: Tuple[float, ...]


# the last three extrapolated rungs must agree within this spread
_SETTLE_SPREAD = 1e-2


def directional_derivative_detail(
    f: DirectionalFunction, x, theta
) -> DerivativeEstimate:
    """One-sided directional derivative with the rung trace attached, from
    the quotients on DEFAULT_LADDER."""
    x = _point(x, f.dimension)
    theta = _direction(theta, f.dimension)
    q = quotient_ladder(f, x, theta)
    # one-sided quotients carry an O(r) error term; the rungs halve, so
    # eliminate it pairwise
    extrap = 2.0 * q[1:] - q[:-1]
    numeric = float(extrap[-1])
    if f.derivative is not None:
        return DerivativeEstimate(
            float(f.derivative(x, theta)), numeric, True, tuple(q)
        )
    tail = extrap[-3:]
    if float(np.max(tail) - np.min(tail)) > _SETTLE_SPREAD:
        raise LadderDivergenceError(
            f"directional quotient ladder did not settle at {tuple(x)} "
            f"(tail spread {np.max(tail) - np.min(tail):.3e})",
            q,
        )
    return DerivativeEstimate(numeric, numeric, False, tuple(q))


def directional_derivative(f: DirectionalFunction, x, theta) -> float:
    return directional_derivative_detail(f, x, theta).value


# ---------------------------------------------------------------------------
# the non-differentiability measure


@dataclass(frozen=True)
class TauEstimate:
    """Minimax non-differentiability residual over a semi-linear subspace.

    ``ladder`` holds (radius, minimax residual) per rung, largest radius
    first; ``value`` is the smallest rung's residual (reported as-is, not
    forced monotone).  ``coefficients`` is the smallest rung's minimizing
    map as D in R^n, with D.w = L(w) on W and D zero off span(W).
    """

    value: float
    coefficients: np.ndarray
    ladder: Tuple[Tuple[float, float], ...]
    direction_count: int


def tau(
    f: DirectionalFunction,
    x,
    W: SemiLinearSubspace,
    n_dir: int = 32,
    ladder=None,
    seed: int = 0,
) -> TauEstimate:
    """Estimate the non-differentiability measure of f at x over W."""
    x = _point(x, f.dimension)
    if W.dimension != f.dimension:
        raise ValueError(
            f"expected a subspace W of R^{f.dimension}, got one of R^{W.dimension}"
        )
    if W.is_trivial():
        raise ValueError("W must be nontrivial")
    if n_dir < 2 * f.dimension:
        raise ValueError(f"need n_dir >= {2 * f.dimension}")
    ladder = DEFAULT_LADDER if ladder is None else np.asarray(ladder, dtype=float)
    dirs = sample_unit_vectors(W, n_dir, seed)
    S = W.span_basis()
    A = dirs @ S  # minimax fit in span coordinates (Prop-2.1-style equivalence)
    fx = f(x)
    rungs = []
    coeffs = np.zeros(S.shape[1])
    for r in ladder:
        q = (f.evaluate_many(x[None, :] + r * dirs) - fx) / r
        coeffs, res = minimax_fit(A, q)
        rungs.append((float(r), float(res)))
    return TauEstimate(
        value=rungs[-1][1],
        coefficients=S @ coeffs,
        ladder=tuple(rungs),
        direction_count=n_dir,
    )


# ---------------------------------------------------------------------------
# maximal differentiability degree


@dataclass(frozen=True)
class GammaBudget:
    """Sampling budget for the degree search."""

    candidates_per_dim: int = 64
    b_per_candidate: int = 32
    directions: int = 24
    ladder: Optional[np.ndarray] = None
    seed: int = 0


@dataclass(frozen=True)
class GammaEstimate:
    degree: int
    witness: SemiLinearSubspace
    worst_residual: float
    tolerance: float


_N_PROBES = 16  # gradient probes around x
_PROBE_RADIUS = 1e-3  # their distance from x
_FD_H = 1e-6  # central-difference step of a probe gradient
_CLUSTER_TOL = 1e-3  # gradients closer than this are one smooth piece


def kink_normals(f: DirectionalFunction, x, seed: int = 0) -> list:
    """Candidate kink normals from clustering nearby gradient estimates.

    Gradients are sampled _N_PROBES times at distance _PROBE_RADIUS from
    x, by central differences of step _FD_H; clusters further than
    _CLUSTER_TOL apart indicate smooth pieces and their normalized
    differences point across the kink.
    """
    x = _point(x, f.dimension)
    n = f.dimension
    probes = sample_unit_vectors(full_space(n), _N_PROBES, seed)
    eye = np.eye(n)
    grads = []
    for u in probes:
        p = x + _PROBE_RADIUS * u
        g = np.empty(n)
        for i in range(n):
            g[i] = (f(p + _FD_H * eye[i]) - f(p - _FD_H * eye[i])) / (2.0 * _FD_H)
        grads.append(g)
    reps: list = []
    for g in grads:
        if all(np.linalg.norm(g - r) > _CLUSTER_TOL for r in reps):
            reps.append(g)
    normals = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            d = reps[i] - reps[j]
            nrm = np.linalg.norm(d)
            if nrm > _CLUSTER_TOL:
                d = d / nrm
                if all(
                    min(np.linalg.norm(d - m), np.linalg.norm(d + m)) > 1e-6
                    for m in normals
                ):
                    normals.append(d)
    return normals


def _complement_basis(n: int, vectors) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given vectors."""
    if not len(vectors):
        return np.eye(n)
    M = np.atleast_2d(np.asarray(vectors, dtype=float))
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > 1e-10))
    return vt[rank:].T


def _candidate_subspaces(n: int, k: int, normals, count: int, seed: int):
    """Structured (kink-normal-orthogonal) then quasi-random k-subspaces."""
    rng = np.random.default_rng(seed)
    cands = []

    def push(vectors):
        try:
            V = linear_subspace(n, vectors)
        except ValueError:
            return
        if V.linear_dim != k:
            return
        P = V.basis @ V.basis.T
        for other in cands:
            if np.max(np.abs(other.basis @ other.basis.T - P)) < 1e-8:
                return
        cands.append(V)

    # orthogonal complements of single normals (k = n-1) and pairs (k = n-2)
    if k == n - 1:
        for m in normals:
            B = _complement_basis(n, [m])
            push(list(B.T))
    if n == 3 and k == 1:
        for i in range(len(normals)):
            for j in range(i + 1, len(normals)):
                c = np.cross(normals[i], normals[j])
                if np.linalg.norm(c) > 1e-8:
                    push([c])
    while len(cands) < count:
        G = rng.standard_normal((n, k))
        Q, _ = np.linalg.qr(G)
        push(list(Q[:, :k].T))
    return cands[:count]


def gamma(
    f: DirectionalFunction,
    x,
    tol: float = 1e-3,
    budget: Optional[GammaBudget] = None,
) -> GammaEstimate:
    """Largest k with a sampled k-dim V that is flat through every halfspace.

    Dimension-k candidates are seeded from detected kink normals, then
    quasi-random; each surviving V must keep the residual below tol for
    V itself and for V + cone(b) over the sampled b battery.  Ties at a
    dimension break toward the smallest worst-b residual.
    """
    _positive_tol(tol)
    if budget is None:
        budget = GammaBudget()
    x = _point(x, f.dimension)
    n = f.dimension
    lad = budget.ladder

    t_full = tau(f, x, full_space(n), max(budget.directions, 2 * n), lad)
    if t_full.value < tol:
        return GammaEstimate(n, full_space(n), t_full.value, tol)

    normals = kink_normals(f, x, seed=budget.seed)
    b_dirs = sample_unit_vectors(full_space(n), budget.b_per_candidate, budget.seed + 1)

    for k in range(n - 1, 0, -1):
        best = None
        cands = _candidate_subspaces(
            n, k, normals, budget.candidates_per_dim, budget.seed
        )
        for V in cands:
            n_dir_v = max(budget.directions, 2 * n)
            tV = tau(f, x, V, n_dir_v, lad)
            if tV.value >= tol:
                continue
            worst = tV.value
            ok = True
            for b in b_dirs:
                H = halfspace(V, b)
                if not H.rays:  # b landed in V: same subspace, already tested
                    continue
                tH = tau(f, x, H, n_dir_v, lad)
                worst = max(worst, tH.value)
                if tH.value >= tol:
                    ok = False
                    break
            if ok and (best is None or worst < best[1]):
                best = (V, worst)
        if best is not None:
            return GammaEstimate(k, best[0], best[1], tol)

    trivial = semilinear(n, [], [])
    worst = 0.0
    for b in b_dirs:
        tR = tau(f, x, semilinear(n, [], [b]), max(4, 2 * n), lad)
        worst = max(worst, tR.value)
    return GammaEstimate(0, trivial, worst, tol)


# ---------------------------------------------------------------------------
# singular-set scan


@dataclass(frozen=True)
class ScanPoint:
    point: Tuple[float, ...]
    tau: float
    gamma: int
    sf_flag: bool


_SF_THRESHOLD = 1e8  # a difference quotient above this flags divergence


def singular_scan(
    f: DirectionalFunction,
    box,
    resolution,
    tol: float = 1e-3,
    annotate_gamma: bool = True,
) -> list:
    """Flag grid points whose full-space residual exceeds tol.

    The ladder is 2, 1 and 1/2 times the cell size, so a flagged point
    lies within half a cell of a true kink of a piecewise-smooth f.
    Quotient magnitudes above _SF_THRESHOLD flag singular-set
    membership.  Flagged points are annotated with the differentiability
    degree, from a small fixed gamma budget on the two finest rungs.
    """
    _positive_tol(tol)
    n = f.dimension
    pts, cell = _box_grid(box, resolution, n, 2)
    ladder = np.array([2.0, 1.0, 0.5]) * cell

    n_dir = 2 if n == 1 else (16 if n == 2 else 48)
    dirs = sample_unit_vectors(full_space(n), n_dir, 0)
    A = dirs  # span of R^n: ambient coordinates
    pinv = np.linalg.pinv(A)

    fvals = f.evaluate_many(pts)
    P = pts.shape[0]
    ls_res = np.zeros(P)
    max_q = np.zeros(P)
    Q_small = None
    for r in ladder:
        shifted = (pts[:, None, :] + r * dirs[None, :, :]).reshape(-1, n)
        Q = (f.evaluate_many(shifted).reshape(P, n_dir) - fvals[:, None]) / r
        coeff = Q @ pinv.T
        res = np.max(np.abs(Q - coeff @ A.T), axis=1)
        ls_res = res  # smallest rung last
        max_q = np.maximum(max_q, np.max(np.abs(Q), axis=1))
        Q_small = Q

    sf = max_q > _SF_THRESHOLD
    candidates = np.flatnonzero((ls_res >= tol) | sf)
    gamma_budget = GammaBudget(
        candidates_per_dim=8, b_per_candidate=8, directions=n_dir, ladder=ladder[-2:]
    )
    out = []
    for i in candidates:
        # least-squares residual only upper-bounds the minimax one
        _, exact = minimax_fit(A, Q_small[i])
        if exact < tol and not sf[i]:
            continue
        if annotate_gamma:
            g = gamma(f, pts[i], tol=tol, budget=gamma_budget).degree
        else:
            g = -1
        out.append(ScanPoint(tuple(pts[i]), float(exact), g, bool(sf[i])))
    return out


def scan_to_csv(points: Sequence[ScanPoint], path, dimension: int):
    cols = [f"x{i + 1}" for i in range(dimension)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols + ["tau", "gamma", "sf_flag"]) + "\n")
        for p in points:
            row = [f"{c:.12g}" for c in p.point]
            row += [f"{p.tau:.12g}", str(p.gamma), "1" if p.sf_flag else "0"]
            fh.write(",".join(row) + "\n")
