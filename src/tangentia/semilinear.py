"""Semi-linear subspaces (linear part + up to two rays) and the restricted
Hausdorff metric on their unit-ball portions.

A value W = V + cone(b_1, b_2) is kept in canonical form: V as an
orthonormal basis, each ray a unit vector with nonzero component
orthogonal to V.  Opposite rays get absorbed into V.  Equality of the
mathematical sets corresponds to equality of canonical forms within
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "SemiLinearSubspace",
    "semilinear",
    "linear_subspace",
    "full_space",
    "ray_space",
    "halfspace",
    "hc_distance",
    "sample_unit_vectors",
]

_ANGULAR_TOL = 1e-10
_MEMBER_TOL = 1e-9  # membership residual, relative to 1 + |w|
_HC_SAMPLES = 720  # unit directions per set of the Hausdorff distance
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

    def contains(self, w) -> "bool | np.ndarray":
        """Membership: w = v + sum lambda_i b_i with v in V, lambda_i >= 0.

        A vector (n,) gives a bool; rows (m, n) give a bool array (m,).
        The residual |w - proj_W(w)| is compared with _MEMBER_TOL (1 + |w|).
        """
        w = np.asarray(w, dtype=float)
        resid = np.linalg.norm(w - self.cone_project(w), axis=-1)
        inside = resid <= _MEMBER_TOL * (1.0 + np.linalg.norm(w, axis=-1))
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

    A row whose projection onto span(P) has nonnegative coefficients maps
    to that projection; any other row maps to the nearest of the origin and
    its clipped edge projections t_i p_i, t_i = max(p_i . z, 0).  Since
    |z - t_i p_i|^2 = |z|^2 - t_i^2, that is the edge with the largest
    t_i (the first on ties), and the origin when every t_i is 0.

    The interior works in an orthonormal frame Q of span(P): the span
    projection is Q (Q^T z), and only the coefficient signs come from the
    rays' coordinates in that frame.  Forming lam @ P instead loses
    |z| eps / sin^2(angle) to cancellation when the rays are nearly opposite.
    """
    k = P.shape[0]
    if k == 0:
        return np.zeros_like(Z)
    t = np.maximum(Z @ P.T, 0.0)  # (m, k)
    i = np.argmax(t, axis=1)
    edge = t[np.arange(len(Z)), i, None] * P[i]
    if k == 1:
        return edge
    # Gram-Schmidt with one reorthogonalisation: p_1 = q_1, p_2 = c q_1 + s q_2
    c = P[0] @ P[1]
    u = P[1] - c * P[0]
    u -= (P[0] @ u) * P[0]
    s = np.linalg.norm(u)
    if s == 0.0:
        return edge  # parallel rays span no interior
    Q = np.stack([P[0], u / s], axis=1)  # (n, 2)
    Y = Z @ Q  # (m, 2) coordinates in span(P)
    lam1 = (Y[:, 0] * s - Y[:, 1] * c) / s
    lam2 = Y[:, 1] / s
    inside = (lam1 >= 0.0) & (lam2 >= 0.0)
    return np.where(inside[:, None], Y @ Q.T, edge)


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


def hc_distance(W1: SemiLinearSubspace, W2: SemiLinearSubspace) -> float:
    """Hausdorff distance between W1 and W2 intersected with the unit ball.

    Directed distances are taken over _HC_SAMPLES quasi-uniform unit
    directions of each set (the supremum over the ball portion is attained
    on the unit sphere because projection onto a convex cone is positively
    homogeneous); nearest points are exact cone projections clipped to
    the ball.  Error is O(angular spacing) = O(1/_HC_SAMPLES per circle).
    """
    if W1.dimension != W2.dimension:
        raise ValueError(
            f"ambient dimension mismatch: {W1.dimension} vs {W2.dimension}"
        )

    def directed(A: SemiLinearSubspace, B: SemiLinearSubspace) -> float:
        if A.is_trivial():
            return 0.0  # the origin lies in every closed cone
        pts = _surface_directions(A, _HC_SAMPLES, 0.0)
        q = B.cone_project(pts)
        q /= np.maximum(np.linalg.norm(q, axis=1), 1.0)[:, None]  # clip to the ball
        return float(np.max(np.linalg.norm(pts - q, axis=1)))

    return max(directed(W1, W2), directed(W2, W1))

