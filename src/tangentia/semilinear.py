"""Semi-linear subspaces (linear part + up to two rays), the restricted
Hausdorff metric on their unit-ball portions, and linear maps with
extension to the ambient space.

A value W = V + cone(b_1, b_2) is kept in canonical form: V as an
orthonormal basis, each ray a unit vector with nonzero component
orthogonal to V.  Opposite rays get absorbed into V.  Equality of the
mathematical sets corresponds to equality of canonical forms within
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConsistencyError

__all__ = [
    "SemiLinearSubspace",
    "SemiLinearMap",
    "semilinear",
    "linear_subspace",
    "full_space",
    "ray_space",
    "halfspace",
    "hc_distance",
    "extend_linear_map",
    "sample_unit_vectors",
]

_ANGULAR_TOL = 1e-10
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SemiLinearSubspace:
    """Canonical form of V + cone(rays) in R^n.

    ``basis`` holds an orthonormal basis of V as columns, shape (n, d).
    ``rays`` are unit vectors, each with a nonzero component orthogonal
    to V; at most two (the only shapes the structural results need).
    """

    dimension: int
    basis: np.ndarray
    rays: Tuple[np.ndarray, ...] = ()

    @property
    def linear_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def span_dim(self) -> int:
        return self.basis.shape[1] + len(self.rays)

    def is_trivial(self) -> bool:
        return self.linear_dim == 0 and not self.rays

    def project_linear(self, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto V of a vector (n,) or of rows (m, n)."""
        if self.linear_dim == 0:
            return np.zeros_like(w)
        return (w @ self.basis) @ self.basis.T

    def _ray_perps(self) -> np.ndarray:
        """Unit components of the rays orthogonal to V, shape (k, n)."""
        R = np.reshape(self.rays, (len(self.rays), self.dimension))
        Q = R - self.project_linear(R)
        return Q / np.linalg.norm(Q, axis=1, keepdims=True)

    def span_basis(self) -> np.ndarray:
        """Orthonormal basis of span(W), shape (n, m)."""
        cols = [self.basis[:, j] for j in range(self.linear_dim)]
        for p in self._ray_perps():
            q = p.copy()
            for c in cols:
                q -= (q @ c) * c
            nrm = np.linalg.norm(q)
            if nrm > 1e-12:
                cols.append(q / nrm)
        if not cols:
            return np.zeros((self.dimension, 0))
        return np.stack(cols, axis=1)

    def contains(self, w, tol: float = 1e-9) -> "bool | np.ndarray":
        """Membership: w = v + sum lambda_i b_i with v in V, lambda_i >= 0.

        A vector (n,) gives a bool; rows (m, n) give a bool array (m,).
        The residual |w - proj_W(w)| is compared with tol * (1 + |w|).
        """
        w = np.asarray(w, dtype=float)
        resid = np.linalg.norm(w - self.cone_project(w), axis=-1)
        inside = resid <= tol * (1.0 + np.linalg.norm(w, axis=-1))
        return bool(inside) if w.ndim == 1 else inside

    def cone_project(self, w) -> np.ndarray:
        """Euclidean projection onto the (convex) set W.

        Takes a vector (n,) or rows (m, n) and returns the same shape.
        """
        w = np.asarray(w, dtype=float)
        v = self.project_linear(w)
        cone = _cone_project(np.atleast_2d(w - v), self._ray_perps())
        return v + cone.reshape(w.shape)

    def __repr__(self):
        return (
            f"SemiLinearSubspace(n={self.dimension}, dim V={self.linear_dim}, "
            f"rays={len(self.rays)})"
        )


def _cone_project(Z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Project each row of Z (m, n) onto cone(P rows); P rows are unit, k <= 2.

    A row whose interior solve has nonnegative coefficients maps to that
    combination; any other row maps to the nearest of the origin and its
    clipped edge projections t_i p_i, t_i = max(p_i . z, 0).  Since
    |z - t_i p_i|^2 = |z|^2 - t_i^2, that is the edge with the largest
    t_i (the first on ties), and the origin when every t_i is 0.
    """
    k = P.shape[0]
    if k == 0:
        return np.zeros_like(Z)
    t = np.maximum(Z @ P.T, 0.0)  # (m, k)
    i = np.argmax(t, axis=1)
    edge = t[np.arange(len(Z)), i, None] * P[i]
    if k == 1:
        return edge
    try:
        lam = np.linalg.solve(P @ P.T, P @ Z.T).T
    except np.linalg.LinAlgError:
        return edge  # parallel rays span no interior
    return np.where(np.all(lam >= 0.0, axis=1)[:, None], lam @ P, edge)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Deterministic sign: first component of largest magnitude positive."""
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def semilinear(
    dimension: int,
    basis_vectors: Sequence = (),
    rays: Sequence = (),
    angular_tol: float = _ANGULAR_TOL,
) -> SemiLinearSubspace:
    """Build the canonical form of span(basis_vectors) + cone(rays).

    Rays lying in the linear part are dropped; an opposite ray pair is
    absorbed into the linear part.  More than two surviving rays are
    rejected (richer generator sets are out of scope).
    """
    vecs = [np.asarray(v, dtype=float) for v in basis_vectors]
    ray_vecs = [np.asarray(r, dtype=float) for r in rays]
    for v in vecs + ray_vecs:
        if v.shape != (dimension,):
            raise ValueError(f"generator shape {v.shape} != ({dimension},)")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"generator {v.tolist()} must have finite coordinates")

    def orthobasis(cols):
        if not cols:
            return np.zeros((dimension, 0))
        M = np.stack(cols, axis=1)
        u, s, _ = np.linalg.svd(M, full_matrices=False)
        keep = s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)
        B = u[:, keep]  # no column at all when every generator is zero
        return np.stack([_fix_sign(c) for c in B.T], axis=1) if B.shape[1] else B

    B = orthobasis(vecs)

    def reduce_rays(B, ray_vecs):
        out = []
        for r in ray_vecs:
            nrm = np.linalg.norm(r)
            if nrm <= 1e-14:
                continue  # degenerate ray, dropped
            r = r / nrm
            perp = r - (B @ (B.T @ r) if B.shape[1] else 0.0)
            if np.linalg.norm(perp) <= angular_tol:
                continue  # lies in V
            out.append(r)
        return out

    ray_vecs = reduce_rays(B, ray_vecs)
    # dedup parallel rays; absorb opposite pairs (mod V) into V
    changed = True
    while changed:
        changed = False
        for i in range(len(ray_vecs)):
            for j in range(i + 1, len(ray_vecs)):
                pi = ray_vecs[i] - (B @ (B.T @ ray_vecs[i]) if B.shape[1] else 0.0)
                pj = ray_vecs[j] - (B @ (B.T @ ray_vecs[j]) if B.shape[1] else 0.0)
                pi = pi / np.linalg.norm(pi)
                pj = pj / np.linalg.norm(pj)
                cosang = float(pi @ pj)
                if cosang > 1.0 - angular_tol:
                    del ray_vecs[j]
                    changed = True
                    break
                if cosang < -1.0 + angular_tol:
                    B = orthobasis(
                        [B[:, k] for k in range(B.shape[1])] + [pi]
                    )
                    rest = [ray_vecs[k] for k in range(len(ray_vecs)) if k not in (i, j)]
                    ray_vecs = reduce_rays(B, rest)
                    changed = True
                    break
            if changed:
                break
    if len(ray_vecs) > 2:
        raise ValueError(
            f"{len(ray_vecs)} independent rays; canonical form caps at 2"
        )
    ray_vecs.sort(key=lambda r: tuple(np.round(r, 12)))
    return SemiLinearSubspace(dimension, B, tuple(ray_vecs))


def linear_subspace(dimension: int, basis_vectors: Sequence) -> SemiLinearSubspace:
    return semilinear(dimension, basis_vectors)


def full_space(dimension: int) -> SemiLinearSubspace:
    return semilinear(dimension, list(np.eye(dimension)))


def ray_space(direction) -> SemiLinearSubspace:
    direction = np.asarray(direction, dtype=float)
    return semilinear(direction.shape[0], [], [direction])


def halfspace(V: SemiLinearSubspace, b) -> SemiLinearSubspace:
    """H(V, b) = V + cone(b); equals V when b in V (or b = 0)."""
    if V.rays:
        raise ValueError("halfspace requires a purely linear V")
    b = np.asarray(b, dtype=float)
    return semilinear(
        V.dimension, [V.basis[:, j] for j in range(V.linear_dim)], [b]
    )


def equal(W1: SemiLinearSubspace, W2: SemiLinearSubspace, tol: float = 1e-10) -> bool:
    if W1.dimension != W2.dimension or W1.linear_dim != W2.linear_dim:
        return False
    if len(W1.rays) != len(W2.rays):
        return False
    # compare projectors (basis is unique only up to rotation) and rays
    P1 = W1.basis @ W1.basis.T
    P2 = W2.basis @ W2.basis.T
    if np.max(np.abs(P1 - P2)) > tol:
        return False
    for r1, r2 in zip(W1.rays, W2.rays):
        if np.linalg.norm(r1 - r2) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# direction sampling


def _surface_directions(W: SemiLinearSubspace, N: int, offset: float) -> np.ndarray:
    """N quasi-uniform unit vectors in W (members of W on the unit sphere)."""
    m = W.span_dim
    if m == 0:
        raise ValueError("the trivial subspace has no unit vectors")
    S = W.span_basis()
    if m == 1:
        if W.rays:  # a single ray: its unit vector, N times
            return np.tile(W.rays[0], (N, 1))
        signs = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
        return signs[:, None] * S[:, 0]  # full line: alternate the two endpoints
    M = max(N, 16)
    for _ in range(12):
        if m == 2:
            ang = 2.0 * math.pi * ((np.arange(M) * 0.6180339887498949 + offset) % 1.0)
            local = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        else:
            # Fibonacci sphere with rotational offset
            z = 1.0 - 2.0 * (np.arange(M) + 0.5) / M
            ang = _GOLDEN_ANGLE * np.arange(M) + 2.0 * math.pi * offset
            rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
            local = np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=-1)
        cands = local @ S.T
        members = cands[W.contains(cands)]
        if len(members) >= N:
            idx = np.linspace(0, len(members) - 1, N).round().astype(int)
            return members[idx]
        M *= 2
    raise ValueError("could not sample enough directions in W")


def sample_unit_vectors(W: SemiLinearSubspace, N: int, seed: int = 0) -> np.ndarray:
    """N deterministic quasi-uniform unit vectors in W, shape (N, n)."""
    if N < 1:
        raise ValueError("need N >= 1")
    if W.is_trivial():
        raise ValueError("cannot sample unit vectors from the trivial subspace")
    rng = np.random.default_rng(seed)
    offset = float(rng.random())
    return _surface_directions(W, N, offset)


# ---------------------------------------------------------------------------
# restricted Hausdorff metric


def hc_distance(W1: SemiLinearSubspace, W2: SemiLinearSubspace, N: int = 720) -> float:
    """Hausdorff distance between W1 and W2 intersected with the unit ball.

    Directed distances are taken over N quasi-uniform unit directions of
    each set (the supremum over the ball portion is attained on the unit
    sphere because projection onto a convex cone is positively
    homogeneous); nearest points are exact cone projections clipped to
    the ball.  Error is O(angular spacing) = O(1/N per circle).
    """
    if W1.dimension != W2.dimension:
        raise ValueError(
            f"ambient dimension mismatch: {W1.dimension} vs {W2.dimension}"
        )
    if N < 100:
        raise ValueError("need N >= 100 samples")

    def directed(A: SemiLinearSubspace, B: SemiLinearSubspace) -> float:
        if A.is_trivial():
            return 0.0  # the origin lies in every closed cone
        pts = _surface_directions(A, N, 0.0)
        q = B.cone_project(pts)
        q /= np.maximum(np.linalg.norm(q, axis=1), 1.0)[:, None]  # clip to the ball
        return float(np.max(np.linalg.norm(pts - q, axis=1)))

    return max(directed(W1, W2), directed(W2, W1))


# ---------------------------------------------------------------------------
# linear maps on W and their extension


@dataclass(frozen=True)
class SemiLinearMap:
    """A map on W, determined by values on V's basis vectors and the rays.

    ``coefficients`` (filled by :func:`extend_linear_map`) is D in R^n
    with D.w = L(w) on W and D zero on span(W)'s complement.
    """

    carrier: SemiLinearSubspace
    basis_values: Tuple[float, ...]
    ray_values: Tuple[float, ...] = ()
    coefficients: Optional[np.ndarray] = None

    def generator_matrix(self) -> np.ndarray:
        cols = [self.carrier.basis[:, j] for j in range(self.carrier.linear_dim)]
        cols += list(self.carrier.rays)
        return np.stack(cols, axis=1) if cols else np.zeros((self.carrier.dimension, 0))

    def generator_values(self) -> np.ndarray:
        return np.array(list(self.basis_values) + list(self.ray_values))

    def __call__(self, w) -> float:
        if self.coefficients is None:
            raise ValueError("extend_linear_map must run before evaluation")
        return float(self.coefficients @ np.asarray(w, dtype=float))


def extend_linear_map(L: SemiLinearMap, tol: float = 1e-8) -> SemiLinearMap:
    """Fill the extended coefficient vector D with D.g = L(g) per generator.

    D is the minimum-norm solution, hence zero on the orthogonal
    complement of span(W); for consistent generator values this keeps
    the Lipschitz constant of the extension equal to that of L.
    Inconsistent values (no single linear map fits) raise.
    """
    G = L.generator_matrix()
    vals = L.generator_values()
    if G.shape[1] != vals.shape[0]:
        raise ValueError("one value per generator required")
    if G.shape[1] == 0:
        return replace(L, coefficients=np.zeros(L.carrier.dimension))
    D, *_ = np.linalg.lstsq(G.T, vals, rcond=None)
    resid = G.T @ D - vals
    scale = 1.0 + float(np.max(np.abs(vals)))
    if float(np.max(np.abs(resid))) > tol * scale:
        raise ConsistencyError(
            f"generator values are not linearly consistent "
            f"(max residual {np.max(np.abs(resid)):.3e})"
        )
    return replace(L, coefficients=D)


def map_from_coefficients(W: SemiLinearSubspace, D) -> SemiLinearMap:
    """The restriction of w -> D.w to W, already extended."""
    D = np.asarray(D, dtype=float)
    bvals = tuple(float(D @ W.basis[:, j]) for j in range(W.linear_dim))
    rvals = tuple(float(D @ r) for r in W.rays)
    return SemiLinearMap(W, bvals, rvals, coefficients=D)
