"""Tangentiality testing for point sets.

A set is k-tangential at a base point when displacements into the set
become asymptotically parallel to a fixed k-dimensional subspace: with
h = h^V + h^{V⊥}, the ratio |h^{V⊥}|/|h^V| tends to zero along points
approaching the base.  We decide that limit from finite data by dyadic
shell statistics, and offer a greedy decomposition into finitely many
tangential pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .funcspace import _direction, _point

__all__ = [
    "ShellStat",
    "TangencyReport",
    "fit_tangent",
    "is_k_tangential",
    "sigma_decompose",
    "SigmaPiece",
    "load_point_cloud",
]


@dataclass(frozen=True)
class ShellStat:
    """Statistics over one dyadic shell 2^{-j-1} R < |h| <= 2^{-j} R.

    ``kept`` marks shells whose scale stays above the resolution floor;
    sub-resolution shells carry only discretization noise and are
    excluded from the verdict.
    """

    shell: int
    count: int
    max_ratio: float  # +inf when some displacement is purely normal
    kept: bool = True


@dataclass(frozen=True)
class TangencyReport:
    """Shell-trend verdict on k-tangentiality at one base point.

    The limit condition is operationalized from finite data: verdict
    "tangential" means the three finest kept shells all have max ratio
    < eta (exact affine subsets short-circuit to tangential at every
    eta); "not tangential" means three consecutive kept shells with
    ratio >= 2*eta; anything else is "inconclusive".  There is no
    quantitative modulus to compare against, so the rule is an
    instrument convention, stated here and echoed in serialized
    reports.
    """

    base: Tuple[float, ...]
    subspace: np.ndarray  # (n, k) orthonormal columns
    shells: Tuple[ShellStat, ...]
    verdict: str  # "tangential" | "not tangential" | "inconclusive"
    eta: float
    radius: float
    floor: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "subspace": [list(c) for c in np.asarray(self.subspace).T],
            "shells": [
                {
                    "shell": s.shell,
                    "count": s.count,
                    "max_ratio": (
                        s.max_ratio if math.isfinite(s.max_ratio) else "inf"
                    ),
                    "kept": s.kept,
                }
                for s in self.shells
            ],
            "verdict": self.verdict,
            "eta": self.eta,
            "radius": self.radius,
            "resolution_floor": self.floor,
            "rule": "shell-trend convention, not a proven modulus",
        }


def _lex_sign(v: np.ndarray) -> np.ndarray:
    for c in v:
        if abs(c) > 1e-12:
            return v if c > 0 else -v
    return v


def _check_k(k: int, n: int):
    """Refuse a tangent dimension k outside 1..n for a cloud in R^n."""
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n} for points in R^{n}, got {k}")


def fit_tangent(
    points, x, k: int, radius: Optional[float] = None
) -> np.ndarray:
    """Top-k principal directions of {p - x}, weighted by 1/|p - x|.

    The weighting makes the fit scale-free (each shell contributes
    comparably).  Displacements below the resolution floor of
    ``is_k_tangential`` are dropped: their direction is sampling noise,
    which the weighting would let dominate.  Deterministic: eigenvectors
    sorted by eigenvalue and sign-fixed lexicographically.  A k outside
    1..n raises, and so does rank deficiency below k, with the achievable
    rank in the message.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_k(k, points.shape[1])
    x = _point(x, points.shape[1])
    h = points - x[None, :]
    norms = np.linalg.norm(h, axis=1)
    keep = norms > max(1e-14, _RESOLUTION_FLOOR * _nn_spacing(points))
    if radius is not None:
        keep &= norms <= radius
    h = h[keep]
    norms = norms[keep]
    if h.shape[0] < 2 * k:
        raise ValueError(
            f"need at least {2 * k} points near the base, got {h.shape[0]}"
        )
    u = h / norms[:, None]
    w = 1.0 / norms
    cov = (u * w[:, None]).T @ u
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    rank = int(np.sum(vals > 1e-10 * max(vals[0], 1e-300)))
    if rank < k:
        raise ValueError(
            f"displacement set has rank {rank} < requested dimension {k}"
        )
    V = np.stack([_lex_sign(vecs[:, i]) for i in range(k)], axis=1)
    return V


# shells finer than this many median nearest-neighbour spacings are
# sub-resolution, and a piece thinner than it is flat at sampling resolution
_RESOLUTION_FLOOR = 4.0
_SHELLS = 8  # dyadic shells of the ratio test, at most


def _nn_spacing(points: np.ndarray) -> float:
    """Median nearest-neighbour distance (the sampling scale of the set)."""
    if points.shape[0] < 2:
        return 0.0
    from scipy.spatial import cKDTree

    d, _ = cKDTree(points).query(points, k=2)
    return float(np.median(d[:, 1]))


def is_k_tangential(points, x, V, eta: float = 0.2) -> TangencyReport:
    """Dyadic-shell ratio test of k-tangentiality at x along V.

    The analysis radius is the largest displacement from x, split into at
    most _SHELLS dyadic shells.  Shells whose outer radius falls below
    _RESOLUTION_FLOOR times the median nearest-neighbour spacing are
    reported but excluded from the verdict: below the sampling scale the
    ratio statistic measures discretization, not geometry.  V holds one
    nonzero finite vector of R^n per column (or per row).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[1]
    x = _point(x, n)
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if V.shape[0] != n:
        V = V.T
    for v in V.T:
        _direction(v, n)
    # re-orthonormalize defensively
    V, _ = np.linalg.qr(V)

    h = points - x[None, :]
    norms = np.linalg.norm(h, axis=1)
    keep = norms > 1e-14
    h, norms = h[keep], norms[keep]
    if h.shape[0] == 0:
        return TangencyReport(tuple(x), V, (), "inconclusive", eta, 0.0)
    R = float(np.max(norms))
    min_scale = _RESOLUTION_FLOOR * _nn_spacing(points)

    tang = h @ V
    tnorm = np.linalg.norm(tang, axis=1)
    pnorm = np.sqrt(np.maximum(norms**2 - tnorm**2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(tnorm > 1e-14 * norms, pnorm / tnorm, np.inf)

    # dyadic bins anchored at the floor so no usable scale range is
    # wasted; the top bin absorbs everything out to the analysis radius
    lo_min = max(min_scale, R * 2.0 ** (-_SHELLS))
    nb = 0
    if R > lo_min:
        nb = min(_SHELLS, int(math.floor(math.log2(R / lo_min))))
    stats: List[ShellStat] = []
    for j in range(nb):  # coarse -> fine
        hi = R if j == 0 else lo_min * 2.0 ** (nb - j)
        lo = lo_min * 2.0 ** (nb - j - 1)
        mask = (norms > lo) & (norms <= hi)
        cnt = int(np.sum(mask))
        if cnt == 0:
            continue
        stats.append(ShellStat(j, cnt, float(np.max(ratio[mask])), True))
    sub = norms <= lo_min
    if np.any(sub):
        stats.append(
            ShellStat(nb, int(np.sum(sub)), float(np.max(ratio[sub])), False)
        )

    verdict = "inconclusive"
    if np.all(np.isfinite(ratio)) and float(np.max(ratio)) < 1e-6:
        # exact subset of an affine k-plane: tangential for every eta
        verdict = "tangential"
    else:
        kept = [s for s in stats if s.kept]
        if len(kept) >= 3:
            rs = [s.max_ratio for s in kept[-3:]]
            if all(r < eta for r in rs):
                verdict = "tangential"
            else:
                run = 0
                for s in kept:
                    run = run + 1 if s.max_ratio >= 2.0 * eta else 0
                    if run >= 3:
                        verdict = "not tangential"
                        break
    return TangencyReport(
        tuple(x), V, tuple(stats), verdict, eta, R, min_scale
    )


# ---------------------------------------------------------------------------
# sigma decomposition


@dataclass(frozen=True)
class SigmaPiece:
    """One decomposed subset with its base-point voting record.

    Inconclusive verdicts abstain: the pass fraction is taken over
    conclusive bases only, so data-starved bases (short pieces, shells
    below the resolution floor) do not count as counterexamples.
    """

    indices: np.ndarray  # indices into the input cloud
    direction_basis: np.ndarray  # (n, k) representative tangent
    bases_tested: int
    bases_passed: int
    bases_conclusive: int

    @property
    def pass_fraction(self) -> float:
        return self.bases_passed / max(self.bases_conclusive, 1)


def _principal_angle(V: np.ndarray, W: np.ndarray) -> float:
    s = np.linalg.svd(V.T @ W, compute_uv=False)
    s = np.clip(s, -1.0, 1.0)
    return float(np.arccos(np.min(s)))


def _local_direction(points, i, k, m=12, iters=4):
    """Robust tangent at points[i] from its m nearest neighbours.

    Iteratively downweights off-manifold neighbours (weights
    1/(eps + perp^2)) so crossings don't blend the two branches.
    """
    x = points[i]
    d = np.linalg.norm(points - x[None, :], axis=1)
    order = np.argsort(d)
    nb = points[order[1 : m + 1]]
    h = nb - x[None, :]
    norms = np.linalg.norm(h, axis=1)
    ok = norms > 1e-14
    h, norms = h[ok], norms[ok]
    if h.shape[0] < 2 * k:
        return None
    u = h / norms[:, None]
    w = np.ones(u.shape[0])
    V = None
    for _ in range(iters):
        cov = (u * w[:, None]).T @ u
        vals, vecs = np.linalg.eigh(cov)
        V = vecs[:, np.argsort(vals)[::-1][:k]]
        perp2 = np.maximum(
            1.0 - np.linalg.norm(u @ V, axis=1) ** 2, 0.0
        )
        w = 1.0 / (0.05 + perp2)
    return np.stack([_lex_sign(V[:, j]) for j in range(k)], axis=1)


_ANGLE_TOL = math.pi / 10  # principal angle joining a point to a cluster
_BASE_SAMPLES = 16  # base points tested per piece


def sigma_decompose(
    points,
    k: int,
    pieces: int = 8,
    eta: float = 0.2,
    seed: int = 0,
) -> Tuple[bool, List[SigmaPiece], List[TangencyReport]]:
    """Greedy decomposition into at most `pieces` k-tangential subsets.

    Clusters points by local tangent direction (principal angle below
    _ANGLE_TOL), then tests tangentiality at up to _BASE_SAMPLES sampled
    base points of each piece; a piece passes when >= 90% of its
    conclusive bases pass, or — when every base abstains for lack of
    usable shells — when the piece is flat at sampling resolution (its
    thickness stays below _RESOLUTION_FLOOR nearest-neighbour spacings
    and below eta times its extent).  Overall pass iff every piece
    passes.
    This is an instrument, not a certificate: the clustering is greedy
    and the verdict inherits the shell-trend operationalization.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    _check_k(k, points.shape[1])
    npts = points.shape[0]
    rng = np.random.default_rng(seed)

    dirs = [None] * npts
    for i in range(npts):
        dirs[i] = _local_direction(points, i, k)

    labels = -np.ones(npts, dtype=int)
    reps: List[np.ndarray] = []
    for i in range(npts):
        if dirs[i] is None:
            continue
        best, bang = -1, math.inf
        for c, rep in enumerate(reps):
            a = _principal_angle(dirs[i], rep)
            if a < bang:
                best, bang = c, a
        if best >= 0 and bang < _ANGLE_TOL:
            labels[i] = best
        else:
            reps.append(dirs[i])
            labels[i] = len(reps) - 1

    # fold clusters too small to analyze into their nearest neighbour cluster
    counts = np.bincount(labels[labels >= 0], minlength=len(reps))
    for c in np.flatnonzero((counts > 0) & (counts < 3)):
        cands = [
            (_principal_angle(reps[c], reps[d]), d)
            for d in np.flatnonzero(counts >= 3)
        ]
        if cands:
            labels[labels == c] = min(cands)[1]
    # unassigned points (degenerate neighbourhoods) join the nearest cluster
    for i in np.flatnonzero(labels < 0):
        d = np.linalg.norm(points - points[i][None, :], axis=1)
        for j in np.argsort(d)[1:]:
            if labels[j] >= 0:
                labels[i] = labels[j]
                break

    # the greedy pass anchors each cluster on its first point's local
    # direction, which carries the full estimation noise; refit every
    # representative from the member points and merge aligned clusters
    def _piece_basis(sub: np.ndarray) -> Optional[np.ndarray]:
        centred = sub - sub.mean(axis=0)
        try:
            _, svals, vt = np.linalg.svd(centred, full_matrices=False)
        except np.linalg.LinAlgError:
            return None
        if svals.shape[0] < k or svals[k - 1] <= 1e-14:
            return None
        return np.stack([_lex_sign(vt[j]) for j in range(k)], axis=1)

    refined = {}
    for c in np.unique(labels[labels >= 0]):
        B = _piece_basis(points[labels == c])
        refined[c] = B if B is not None else reps[c]
    merged = True
    while merged:
        merged = False
        cs = sorted(refined)
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                if _principal_angle(refined[cs[i]], refined[cs[j]]) < _ANGLE_TOL:
                    labels[labels == cs[j]] = cs[i]
                    del refined[cs[j]]
                    B = _piece_basis(points[labels == cs[i]])
                    if B is not None:
                        refined[cs[i]] = B
                    merged = True
                    break
            if merged:
                break

    used = [c for c in np.unique(labels) if c >= 0]
    if len(used) > pieces:
        return False, [], []

    piece_list: List[SigmaPiece] = []
    reports: List[TangencyReport] = []
    overall = True
    for c in used:
        idx = np.flatnonzero(labels == c)
        sub = points[idx]
        nb = min(_BASE_SAMPLES, idx.size)
        bases = rng.choice(idx.size, size=nb, replace=False)
        passed = 0
        conclusive = 0
        for b in bases:
            x = sub[b]
            try:
                V = fit_tangent(sub, x, k)
            except ValueError:
                continue
            rep = is_k_tangential(sub, x, V, eta=eta)
            reports.append(rep)
            if rep.verdict != "inconclusive":
                conclusive += 1
            if rep.verdict == "tangential":
                passed += 1
        basis = refined.get(c)
        if basis is None:
            basis = reps[c] if c < len(reps) else dirs[idx[0]]
        piece_list.append(SigmaPiece(idx, basis, nb, passed, conclusive))
        if conclusive > 0:
            if passed < math.ceil(0.9 * conclusive):
                overall = False
        else:
            # every base abstained (too few usable shells); accept the
            # piece only when it is flat at sampling resolution, i.e.
            # its thickness off the fitted k-plane stays below the
            # resolution floor and below eta times its extent
            centred = sub - sub.mean(axis=0)
            ext = float(np.max(np.linalg.norm(centred, axis=1)))
            B = _piece_basis(sub)
            if B is None or ext <= 0.0:
                overall = False
            else:
                perp = centred - (centred @ B) @ B.T
                thick = float(np.max(np.linalg.norm(perp, axis=1)))
                floor = _RESOLUTION_FLOOR * _nn_spacing(sub)
                if thick > floor or thick > eta * ext:
                    overall = False
    return overall, piece_list, reports


# ---------------------------------------------------------------------------
# I/O


def load_point_cloud(path) -> np.ndarray:
    """CSV point cloud, one point per row, optional x1,...,xn header."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    skip = 1 if any(c.isalpha() for c in first) else 0
    return np.atleast_2d(
        np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    )
