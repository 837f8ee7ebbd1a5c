"""Difference quotients, one-sided directional derivatives, the
non-differentiability measure over semi-linear subspaces, the maximal
differentiability degree, and grid scans for the singular locus.

The measure of non-differentiability at x over a semi-linear W is the
inf over linear maps L of the worst relative error |f(x+w)-f(x)-L(w)|/|w|
for small w in W.  Numerically this becomes, per radius rung, a minimax
(Chebyshev) linear fit over sampled unit directions of W; the reported
value is the smallest rung's residual (no extrapolation to 0).  The
degree search ``gamma`` reads that value at one radius, so it fits only
there, and gives up on a candidate as soon as a least-squares bound
shows its residual reaching the tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import LadderDivergenceError, NumericDomainError
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
]


DEFAULT_LADDER = 0.5 * 0.5 ** np.arange(12)


# ---------------------------------------------------------------------------
# minimax linear fitting: a certified least-squares fit, else one LP

# least-squares optimality gap (relative to 1 + max|y|) accepted as exact
_CERTIFY_TOL = 1e-11


def minimax_fit(A: np.ndarray, y: np.ndarray, tol: float = math.inf):
    """Minimize over c the uniform error max_i |y_i - A_i . c|.

    The least-squares fit is returned when its max residual is within
    _CERTIFY_TOL of its mean residual, a lower bound on the optimum
    (exact and equioscillating data).  Otherwise one Chebyshev linear
    program corrects that fit, on its residuals scaled to unit max so
    that the solver's absolute tolerances act relative to them; the
    better of the two fits is returned.  Returns (coefficients, max
    residual).

    A finite tol stops early: when the RMS of the least-squares residual,
    also a lower bound on the optimum, reaches tol (with the _CERTIFY_TOL
    margin against rounding), the least-squares fit and that RMS are
    returned instead.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    m, d = A.shape
    if d == 0 or m == 0:
        return np.zeros(d), float(np.max(np.abs(y))) if m else 0.0
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    r = y - A @ c
    if tol < math.inf:
        rms = float(np.sqrt(np.mean(np.square(r))))
        if rms >= tol * (1.0 + _CERTIFY_TOL):
            return c, rms
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


def _radii(radii) -> np.ndarray:
    """A ladder's radii as an array, DEFAULT_LADDER for None; an empty
    ladder, or a radius that is not finite and > 0, is refused."""
    if radii is None:
        return DEFAULT_LADDER
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not radii.size or not np.all((radii > 0.0) & (radii < math.inf)):
        raise ValueError(f"ladder radii must be finite and > 0, at least one; got {radii.tolist()}")
    return radii


def quotient_ladder(f: DirectionalFunction, x, theta, ladder=None) -> np.ndarray:
    """Difference quotients along theta at each ladder radius."""
    x = _point(x, f.dimension)
    theta = _direction(theta, f.dimension)
    ladder = _radii(ladder)
    fx = f(x)
    pts = x[None, :] + ladder[:, None] * theta[None, :]
    return (f.evaluate_many(pts) - fx) / ladder


# the last three extrapolated rungs must agree within this spread
_SETTLE_SPREAD = 1e-2


def directional_derivative(f: DirectionalFunction, x, theta) -> float:
    """One-sided directional derivative: the oracle of f when it has one
    (a non-finite value is refused), else from the DEFAULT_LADDER quotients."""
    x = _point(x, f.dimension)
    theta = _direction(theta, f.dimension)
    if f.derivative is not None:
        if not math.isfinite(value := float(f.derivative(x, theta))):
            raise NumericDomainError(x, value)
        return value
    q = quotient_ladder(f, x, theta)
    # one-sided quotients carry an O(r) error term; the rungs halve, so
    # eliminate it pairwise
    extrap = 2.0 * q[1:] - q[:-1]
    tail = extrap[-3:]
    if float(np.max(tail) - np.min(tail)) > _SETTLE_SPREAD:
        raise LadderDivergenceError(
            f"directional quotient ladder did not settle at {x.tolist()} "
            f"(tail spread {np.max(tail) - np.min(tail):.3e})",
            q,
        )
    return float(extrap[-1])


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
    ladder = _radii(ladder)
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
    """Sampling budget for the degree search.

    Every residual is tau's value for a ladder whose last rung is
    ``radius``, finite and > 0; the default is DEFAULT_LADDER's last rung.
    ``candidates_per_dim`` and ``b_per_candidate`` are at least 1;
    ``directions`` below 2n is raised to 2n in dimension n.
    """

    candidates_per_dim: int = 64
    b_per_candidate: int = 32
    directions: int = 24
    radius: float = float(DEFAULT_LADDER[-1])

    def __post_init__(self):
        for name in ("candidates_per_dim", "b_per_candidate"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _radii([self.radius])


@dataclass(frozen=True)
class GammaEstimate:
    degree: int
    witness: SemiLinearSubspace
    worst_residual: float


_N_PROBES = 16  # gradient probes around x
_PROBE_RADIUS = 1e-3  # their distance from x
_FD_H = 1e-6  # central-difference step of a probe gradient
_CLUSTER_TOL = 1e-3  # gradients closer than this are one smooth piece


def kink_normals(f: DirectionalFunction, x) -> list:
    """Candidate kink normals from clustering nearby gradient estimates.

    Gradients are sampled _N_PROBES times at distance _PROBE_RADIUS from
    x, by central differences of step _FD_H; clusters further than
    _CLUSTER_TOL apart indicate smooth pieces and their normalized
    differences point across the kink.
    """
    x = _point(x, f.dimension)
    probes = sample_unit_vectors(full_space(f.dimension), _N_PROBES, 0)
    return _kink_normals(f, x, probes)


def _kink_normals(f: DirectionalFunction, x: np.ndarray, probes: np.ndarray) -> list:
    """kink_normals at a checked x, from the given unit probe directions."""
    n = f.dimension
    p = x + _PROBE_RADIUS * probes
    step = _FD_H * np.eye(n)
    # every probe's 2n central-difference points in one batch
    pts = np.concatenate([p[:, None, :] + step, p[:, None, :] - step], axis=1)
    vals = f.evaluate_many(pts.reshape(-1, n)).reshape(len(p), 2, n)
    grads = (vals[:, 0] - vals[:, 1]) / (2.0 * _FD_H)
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


def _candidate_subspaces(n: int, k: int, normals, count: int):
    """Structured (kink-normal-orthogonal) then quasi-random k-subspaces."""
    rng = np.random.default_rng(0)
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


def _key(W: SemiLinearSubspace) -> tuple:
    """W's canonical form as bytes: equal keys sample equal directions."""
    return W.basis.tobytes(), tuple(r.tobytes() for r in W.rays)


def _tau_value(f, x, fx, dirs, A, r, tol) -> float:
    """tau's value over the W that dirs sample (A = dirs @ W.span_basis())
    for a ladder whose last rung is r, wherever that value is below tol;
    at or above tol, a lower bound that reaches it (see minimax_fit)."""
    q = (f.evaluate_many(x[None, :] + r * dirs) - fx) / r
    return minimax_fit(A, q, tol)[1]


class _DegreeSearch:
    """gamma's search for one (f, tol, budget), at any number of points.

    Every piece that does not depend on x is computed once and kept: the
    b battery, the candidate subspaces per set of kink normals, each
    halfspace(V, b), and each subspace's direction sample with its fit
    matrix, keyed by the subspace's canonical basis and rays.  gamma
    builds one per call; singular_scan builds one per scan for all its
    flags.
    """

    def __init__(self, f: DirectionalFunction, tol: float, budget: GammaBudget):
        n = f.dimension
        self.f, self.tol, self.budget = f, tol, budget
        self.n_dir = max(budget.directions, 2 * n)
        self.full = full_space(n)
        self._samples: dict = {}  # (key, N) -> (dirs, dirs @ span basis)
        self._candidates: dict = {}  # (k, normals) -> candidate subspaces
        self._built: dict = {}  # key of V -> halfspace(V, b) per b reached

    @functools.cached_property
    def b_dirs(self) -> np.ndarray:
        return sample_unit_vectors(self.full, self.budget.b_per_candidate, 1)

    @functools.cached_property
    def rays(self) -> list:
        return [semilinear(self.f.dimension, [], [b]) for b in self.b_dirs]

    def sample(self, W: SemiLinearSubspace, N: int):
        """sample_unit_vectors(W, N, 0) and its fit matrix, once per W and N."""
        key = (_key(W), N)
        hit = self._samples.get(key)
        if hit is None:
            dirs = sample_unit_vectors(W, N, 0)
            hit = self._samples[key] = (dirs, dirs @ W.span_basis())
        return hit

    def _residual(self, x, fx, W, N, tol) -> float:
        dirs, A = self.sample(W, N)
        return _tau_value(self.f, x, fx, dirs, A, self.budget.radius, tol)

    def _subspaces(self, k: int, normals) -> list:
        """_candidate_subspaces for this set of kink normals, built once."""
        key = (k, tuple(m.tobytes() for m in normals))
        if key not in self._candidates:
            self._candidates[key] = _candidate_subspaces(
                self.f.dimension, k, normals, self.budget.candidates_per_dim
            )
        return self._candidates[key]

    def _halfspaces(self, V: SemiLinearSubspace):
        """halfspace(V, b) for each b in turn, each built once per V."""
        built = self._built.setdefault(_key(V), [])
        for j, b in enumerate(self.b_dirs):
            if j == len(built):
                built.append(halfspace(V, b))
            yield built[j]

    def degree(self, x: np.ndarray) -> GammaEstimate:
        """gamma(f, x, tol, budget) at a checked point x."""
        f, tol, n_dir = self.f, self.tol, self.n_dir
        n = f.dimension
        fx = f(x)
        t_full = self._residual(x, fx, self.full, n_dir, tol)
        if t_full < tol:
            return GammaEstimate(n, self.full, t_full)

        normals = _kink_normals(f, x, self.sample(self.full, _N_PROBES)[0])
        for k in range(n - 1, 0, -1):
            best = None
            for V in self._subspaces(k, normals):
                worst = self._residual(x, fx, V, n_dir, tol)
                if worst >= tol:
                    continue
                ok = True
                for H in self._halfspaces(V):
                    if not H.rays:  # b landed in V: same subspace, already tested
                        continue
                    tH = self._residual(x, fx, H, n_dir, tol)
                    worst = max(worst, tH)
                    if tH >= tol:
                        ok = False
                        break
                if ok and (best is None or worst < best[1]):
                    best = (V, worst)
            if best is not None:
                return GammaEstimate(k, best[0], best[1])

        worst = 0.0
        for ray in self.rays:
            worst = max(worst, self._residual(x, fx, ray, max(4, 2 * n), math.inf))
        return GammaEstimate(0, semilinear(n, [], []), worst)


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
    dimension break toward the smallest worst-b residual.  Each residual
    is tau's value at the one radius ``budget.radius``, from one minimax
    fit, and a candidate whose least-squares bound already reaches tol
    is rejected without the minimax step.
    """
    _positive_tol(tol)
    if budget is None:
        budget = GammaBudget()
    x = _point(x, f.dimension)
    return _DegreeSearch(f, tol, budget).degree(x)


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
    degree, from a small fixed gamma budget at the finest rung's radius,
    half a cell; one degree search serves every flag, so each subspace is
    sampled once per scan.
    """
    _positive_tol(tol)
    n = f.dimension
    pts, cell = _box_grid(box, resolution, n, 2)
    ladder = np.array([2.0, 1.0, 0.5]) * cell

    n_dir = 2 if n == 1 else (16 if n == 2 else 48)
    # one degree search for every flag; it also holds the scan's directions
    search = _DegreeSearch(f, tol, GammaBudget(8, 8, n_dir, 0.5 * cell))
    dirs = search.sample(search.full, n_dir)[0]
    A = dirs  # span of R^n: ambient coordinates
    pinv = np.linalg.pinv(A)

    fvals = f.evaluate_many(pts)
    P = pts.shape[0]
    max_q = np.zeros(P)
    for r in ladder:
        shifted = (pts[:, None, :] + r * dirs[None, :, :]).reshape(-1, n)
        Q = (f.evaluate_many(shifted).reshape(P, n_dir) - fvals[:, None]) / r
        max_q = np.maximum(max_q, np.max(np.abs(Q), axis=1))
    # Q holds the smallest rung, the only one whose residual is read
    ls_res = np.max(np.abs(Q - (Q @ pinv.T) @ A.T), axis=1)

    sf = max_q > _SF_THRESHOLD
    candidates = np.flatnonzero((ls_res >= tol) | sf)
    out = []
    for i in candidates:
        # least-squares residual only upper-bounds the minimax one
        _, exact = minimax_fit(A, Q[i])
        if exact < tol and not sf[i]:
            continue
        g = search.degree(pts[i]).degree if annotate_gamma else -1
        out.append(ScanPoint(tuple(pts[i]), float(exact), g, bool(sf[i])))
    return out
