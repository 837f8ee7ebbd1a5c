import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from tangentia.errors import ConsistencyError
from tangentia.semilinear import (
    SemiLinearMap,
    equal,
    extend_linear_map,
    full_space,
    halfspace,
    hc_distance,
    linear_subspace,
    ray_space,
    sample_unit_vectors,
    semilinear,
)

e1 = np.array([1.0, 0.0])
e2 = np.array([0.0, 1.0])


# ---------------------------------------------------------------------------
# canonical form


def test_opposite_rays_absorbed_into_linear_part():
    W = semilinear(2, [], [e1, -e1])
    assert W.linear_dim == 1
    assert not W.rays
    assert W.contains(e1) and W.contains(-e1)


def test_ray_in_linear_part_dropped():
    W = semilinear(2, [e1], [e1])
    assert W.linear_dim == 1
    assert not W.rays


def test_degenerate_zero_ray_dropped():
    W = semilinear(2, [], [np.zeros(2)])
    assert W.is_trivial()


def test_zero_basis_vector_gives_trivial_subspace():
    W = semilinear(2, [np.zeros(2)])
    assert W.is_trivial()
    assert W.basis.shape == (2, 0)


def test_more_than_two_rays_rejected():
    rays = [e1, e2, np.array([-1.0, -1.0]) / math.sqrt(2)]
    with pytest.raises(ValueError):
        semilinear(2, [], rays)


def test_canonicalization_idempotent():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vecs = [rng.standard_normal(3) for _ in range(rng.integers(0, 3))]
        rays = [rng.standard_normal(3) for _ in range(rng.integers(0, 3))]
        try:
            W = semilinear(3, vecs, rays)
        except ValueError:
            continue
        W2 = semilinear(
            3,
            [W.basis[:, j] for j in range(W.linear_dim)],
            list(W.rays),
        )
        assert equal(W, W2)


@pytest.mark.parametrize(
    "basis, rays", [([[math.nan, 1.0]], []), ([], [[math.inf, 0.0]]), ([], [[math.nan]])]
)
def test_non_finite_generator_rejected(basis, rays):
    n = len((basis + rays)[0])
    with pytest.raises(ValueError, match="finite"):
        semilinear(n, basis, rays)


def test_generators_are_members():
    W = semilinear(3, [np.array([1.0, 1.0, 0.0])], [np.array([0.0, 0.0, 2.0])])
    for j in range(W.linear_dim):
        assert W.contains(W.basis[:, j])
        assert W.contains(-W.basis[:, j])
    for r in W.rays:
        assert W.contains(r)
        assert not W.contains(-r)


# ---------------------------------------------------------------------------
# cone projection and membership against an NNLS oracle

# generators on a 0.01 grid: parallel, opposite, zero and in-V generators
# occur, and so do rays at a few 1e-4 rad from opposite, whose wide cone
# makes lam @ P cancel (the two explicit examples below)
_coord = st.integers(-200, 200).map(lambda i: i / 100.0)


@st.composite
def _cone_cases(draw):
    n = draw(st.integers(1, 3))
    vec = st.lists(_coord, min_size=n, max_size=n)
    W = semilinear(n, draw(st.lists(vec, max_size=n)), draw(st.lists(vec, max_size=2)))
    point = st.lists(
        st.floats(-5.0, 5.0, allow_subnormal=False), min_size=n, max_size=n
    )
    return W, np.array(draw(st.lists(point, min_size=1, max_size=8)))


def _nnls_projection(W, w):
    """proj_V(w) plus the NNLS fit of the remainder by the rays' V-perps."""
    B = W.basis
    v = B @ (B.T @ w)
    if not W.rays:
        return v
    perps = [r - B @ (B.T @ r) for r in W.rays]
    P = np.stack([p / np.linalg.norm(p) for p in perps], axis=1)  # (n, k)
    lam, _ = nnls(P, w - v)
    return v + P @ lam


@settings(max_examples=300)
@given(_cone_cases())
@example((semilinear(2, [], [[-1.53, 0.89], [1.72, -1.0]]), np.array([[0.0, 2.0]])))
@example(
    (semilinear(2, [], [[-1.53, 0.88], [0.87, -0.5]]), np.array([[0.0, 0.0], [1.0, 2.0]]))
)
def test_cone_project_matches_nnls_oracle(case):
    W, pts = case
    scale = 1.0 + np.linalg.norm(pts, axis=1)
    proj = W.cone_project(pts)
    oracle = np.array([_nnls_projection(W, w) for w in pts])
    assert proj.shape == pts.shape
    assert np.all(np.linalg.norm(proj - oracle, axis=1) <= 1e-9 * scale)
    # projections are members; points far from their projection are not
    assert np.all(W.contains(proj))
    gap = pts - oracle
    dist = np.linalg.norm(gap, axis=1)
    far = dist > 1e-6 * scale
    assert not np.any(W.contains(pts)[far])
    # the tolerance is 1e-9 (1 + |w|): step off W along the outer normal
    base = oracle[far]
    step = (1.0 + np.linalg.norm(base, axis=1))[:, None] * gap[far] / dist[far, None]
    assert np.all(W.contains(base + 1e-10 * step))
    assert not np.any(W.contains(base + 1e-8 * step))
    # a batch gives each row's own result, up to BLAS summation order
    rows = np.array([W.cone_project(w) for w in pts])
    assert np.all(np.abs(proj - rows) <= 1e-14 * scale[:, None])
    verdicts = W.contains(pts)
    assert verdicts.dtype == bool and verdicts.shape == (len(pts),)
    assert verdicts.tolist() == [W.contains(w) for w in pts]
    assert all(type(W.contains(w)) is bool for w in pts)


# ---------------------------------------------------------------------------
# halfspace


def test_halfspace_right_halfplane():
    H = halfspace(linear_subspace(2, [e2]), e1)
    assert H.contains([0.5, -3.0])
    assert H.contains([0.0, 7.0])
    assert not H.contains([-0.1, 0.0])


def test_halfspace_of_trivial_is_ray():
    H = halfspace(semilinear(2), e1)
    assert equal(H, ray_space(e1))


def test_halfspace_b_in_V_absorbed():
    V = linear_subspace(2, [e1])
    H = halfspace(V, e1)
    assert equal(H, V)


def test_halfspace_b_zero_returns_V():
    V = linear_subspace(2, [e1])
    assert equal(halfspace(V, np.zeros(2)), V)


def test_halfspace_requires_linear_V():
    with pytest.raises(ValueError):
        halfspace(ray_space(e1), e2)


# ---------------------------------------------------------------------------
# sampling


def test_sample_line_1d_alternates_endpoints():
    W = full_space(1)
    dirs = sample_unit_vectors(W, 2)
    got = sorted(float(d[0]) for d in dirs)
    assert got == [-1.0, 1.0]


def test_sample_single_ray_constant():
    W = ray_space(e1)
    dirs = sample_unit_vectors(W, 5)
    assert np.allclose(dirs, np.tile(e1, (5, 1)))


def test_sample_halfplane_members_only():
    H = halfspace(linear_subspace(2, [e2]), e1)
    dirs = sample_unit_vectors(H, 16, seed=0)
    assert dirs.shape == (16, 2)
    assert np.all(dirs[:, 0] >= -1e-9)
    for d in dirs:
        assert H.contains(d)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12


def test_sample_deterministic_per_seed():
    W = full_space(3)
    a = sample_unit_vectors(W, 20, seed=4)
    b = sample_unit_vectors(W, 20, seed=4)
    assert np.array_equal(a, b)


def test_sample_trivial_rejected():
    with pytest.raises(ValueError):
        sample_unit_vectors(semilinear(2), 4)


# ---------------------------------------------------------------------------
# hc metric


def test_hc_identical_near_zero():
    W = linear_subspace(2, [e1])
    assert hc_distance(W, W) < 1e-9


def test_hc_opposite_rays():
    # sup over <e1>+ of dist to <-e1>+ is 1, attained at e1 (nearest point 0)
    d = hc_distance(ray_space(e1), ray_space(-e1))
    assert d == pytest.approx(1.0, abs=1e-3)


def test_hc_perpendicular_lines():
    d = hc_distance(linear_subspace(2, [e1]), linear_subspace(2, [e2]))
    assert d == pytest.approx(1.0, abs=1e-3)


def test_hc_line_at_small_angle():
    # for alpha <= pi/4 the worst point is the endpoint: distance sin(alpha)
    for alpha in (0.1, 0.3, math.pi / 4):
        u = np.array([math.cos(alpha), math.sin(alpha)])
        d = hc_distance(linear_subspace(2, [e1]), linear_subspace(2, [u]))
        assert d == pytest.approx(math.sin(alpha), abs=2e-3)


def test_hc_symmetry_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        W1 = linear_subspace(3, [rng.standard_normal(3)])
        W2 = ray_space(rng.standard_normal(3))
        assert hc_distance(W1, W2) == hc_distance(W2, W1)


def test_hc_triangle_inequality_within_mesh():
    rng = np.random.default_rng(6)
    mesh = 2.0 * math.pi / 720
    for _ in range(100):
        Ws = []
        for _ in range(3):
            kind = rng.integers(0, 3)
            v = rng.standard_normal(2)
            if kind == 0:
                Ws.append(linear_subspace(2, [v]))
            elif kind == 1:
                Ws.append(ray_space(v))
            else:
                Ws.append(halfspace(linear_subspace(2, [v]), rng.standard_normal(2)))
        d01 = hc_distance(Ws[0], Ws[1])
        d12 = hc_distance(Ws[1], Ws[2])
        d02 = hc_distance(Ws[0], Ws[2])
        assert d02 <= d01 + d12 + 3.0 * mesh


def test_hc_dimension_mismatch():
    with pytest.raises(ValueError):
        hc_distance(full_space(2), full_space(3))


# ---------------------------------------------------------------------------
# linear maps and extension


def test_extend_full_space_identity():
    W = full_space(2)
    L = SemiLinearMap(W, basis_values=(3.0, -1.0))
    D = extend_linear_map(L).coefficients
    # basis columns of full_space are e1, e2 (canonical orthobasis)
    got = np.array([L.generator_matrix().T @ D]).ravel()
    assert np.allclose(got, [3.0, -1.0], atol=1e-12)


def test_extend_zero_on_complement():
    W = linear_subspace(2, [e1])
    L = SemiLinearMap(W, basis_values=(3.0,))
    D = extend_linear_map(L).coefficients
    assert np.allclose(D, [3.0, 0.0], atol=1e-12)


def test_extend_halfplane_example():
    # W = span(e2) + <e1>+, L(e2) = 2, L(e1) = 1 -> D = (1, 2)
    W = halfspace(linear_subspace(2, [e2]), e1)
    L = SemiLinearMap(W, basis_values=(2.0,), ray_values=(1.0,))
    ext = extend_linear_map(L)
    assert np.allclose(ext.coefficients, [1.0, 2.0], atol=1e-10)
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = rng.standard_normal() * e2 + abs(rng.standard_normal()) * e1
        assert ext(w) == pytest.approx(w[0] * 1.0 + w[1] * 2.0, abs=1e-10)


def test_extension_reproduces_generator_values():
    rng = np.random.default_rng(2)
    for _ in range(20):
        W = semilinear(3, [rng.standard_normal(3)], [rng.standard_normal(3)])
        vals = rng.standard_normal(W.linear_dim + len(W.rays))
        L = SemiLinearMap(
            W, tuple(vals[: W.linear_dim]), tuple(vals[W.linear_dim :])
        )
        ext = extend_linear_map(L)
        G = L.generator_matrix()
        back = G.T @ ext.coefficients
        assert np.max(np.abs(back - vals)) < 1e-10


def test_extension_linearity_on_sampled_members():
    W = halfspace(linear_subspace(3, [e := np.array([0.0, 0.0, 1.0])]), np.array([1.0, 1.0, 0.0]))
    L = extend_linear_map(SemiLinearMap(W, (0.5,), (2.0,)))
    rng = np.random.default_rng(3)
    dirs = sample_unit_vectors(W, 16, seed=0)
    for _ in range(50):
        w1 = dirs[rng.integers(len(dirs))]
        w2 = dirs[rng.integers(len(dirs))]
        l1, l2 = rng.uniform(0, 2, size=2)
        lhs = L(l1 * w1 + l2 * w2)
        rhs = l1 * L(w1) + l2 * L(w2)
        assert abs(lhs - rhs) < 1e-9 * (1.0 + np.linalg.norm(w1) + np.linalg.norm(w2))


def test_inconsistent_generator_values_raise():
    # two parallel generators demanding different values cannot come from a
    # single linear D; build the raw form directly (canonicalization would
    # dedup the rays before a consistency check could see them)
    from tangentia.semilinear import SemiLinearSubspace

    W = SemiLinearSubspace(2, np.zeros((2, 0)), (e1, e1.copy()))
    bad = SemiLinearMap(W, (), (1.0, 2.0))
    with pytest.raises(ConsistencyError):
        extend_linear_map(bad)
