import math

import numpy as np
import pytest

from tangentia.tangency import (
    fit_tangent,
    is_k_tangential,
    load_point_cloud,
    sigma_decompose,
)


def axis_points(n=80, lo=-1.0, hi=1.0):
    t = np.linspace(lo, hi, n)
    return np.stack([t, np.zeros_like(t)], axis=1)


def parabola_points(n=120, span=0.5):
    t = np.linspace(-span, span, n)
    return np.stack([t, t * t], axis=1)


def circle_points(n=200):
    # unit circle through the origin (center (0, 1))
    ang = np.linspace(-math.pi / 2, 3 * math.pi / 2, n, endpoint=False)
    return np.stack([np.cos(ang), 1.0 + np.sin(ang)], axis=1)


def crossing_lines(n=80):
    t = np.linspace(-1.0, 1.0, n)
    axis = np.stack([t, np.zeros_like(t)], axis=1)
    diag = np.stack([t, t], axis=1) / math.sqrt(2.0)
    return np.vstack([axis, diag])


# ---------------------------------------------------------------------------
# fit_tangent


def test_fit_axis():
    V = fit_tangent(axis_points(), np.zeros(2), 1)
    assert abs(abs(float(V[:, 0] @ np.array([1.0, 0.0]))) - 1.0) < 1e-10


def test_fit_parabola_tangent():
    pts = parabola_points(span=0.1)
    V = fit_tangent(pts, np.zeros(2), 1)
    angle = math.acos(min(1.0, abs(float(V[:, 0] @ np.array([1.0, 0.0])))))
    assert angle < 1e-2


def test_fit_circle_tangent():
    pts = circle_points()
    V = fit_tangent(pts, np.array([0.0, 0.0]), 1, radius=0.3)
    # tangent at the origin of the circle centered at (0, 1) is horizontal
    angle = math.acos(min(1.0, abs(float(V[:, 0] @ np.array([1.0, 0.0])))))
    assert angle < 1e-2


def test_fit_rank_deficiency_raises():
    pts = np.zeros((10, 2))
    pts[:, 0] = np.linspace(0.1, 1.0, 10)
    with pytest.raises(ValueError):
        fit_tangent(pts, np.zeros(2), 2)


@pytest.mark.parametrize("k", [0, 3])
def test_k_outside_dimension_rejected(k):
    with pytest.raises(ValueError, match="k must lie in 1..2"):
        fit_tangent(axis_points(), np.zeros(2), k)
    with pytest.raises(ValueError, match="k must lie in 1..2"):
        sigma_decompose(axis_points(), k)


def test_fit_deterministic():
    pts = parabola_points()
    V1 = fit_tangent(pts, np.zeros(2), 1)
    V2 = fit_tangent(pts, np.zeros(2), 1)
    assert np.array_equal(V1, V2)


# ---------------------------------------------------------------------------
# is_k_tangential


def test_axis_subset_tangential_every_eta():
    pts = axis_points()
    V = np.array([[1.0], [0.0]])
    for eta in (0.9, 0.2, 0.05, 0.01):
        rep = is_k_tangential(pts, np.zeros(2), V, eta=eta)
        assert rep.verdict == "tangential"


def test_sparse_subspace_subset_still_passes():
    # even 3 collinear points are an exact subset of their line
    pts = np.array([[0.1, 0.0], [0.5, 0.0], [-0.7, 0.0]])
    V = np.array([[1.0], [0.0]])
    rep = is_k_tangential(pts, np.zeros(2), V, eta=0.01)
    assert rep.verdict == "tangential"


def test_parabola_tangential():
    # dense enough that the resolution floor leaves three shells with
    # ratio below eta
    pts = parabola_points(200)
    rep = is_k_tangential(pts, np.zeros(2), np.array([[1.0], [0.0]]))
    assert rep.verdict == "tangential"


def test_circle_tangential():
    pts = circle_points(1000)
    V = fit_tangent(pts, np.array([0.0, 0.0]), 1, radius=0.3)
    rep = is_k_tangential(pts, np.array([0.0, 0.0]), V)
    assert rep.verdict == "tangential"


def test_crossing_lines_not_tangential_any_line():
    pts = crossing_lines()
    x = np.zeros(2)
    cands = [fit_tangent(pts, x, 1)]
    for ang in np.linspace(0.0, math.pi, 9, endpoint=False):
        cands.append(np.array([[math.cos(ang)], [math.sin(ang)]]))
    for V in cands:
        rep = is_k_tangential(pts, x, V)
        assert rep.verdict != "tangential"


def test_empty_neighbourhood_inconclusive():
    pts = np.array([[5.0, 5.0]])
    rep = is_k_tangential(pts, np.array([5.0, 5.0]), np.array([[1.0], [0.0]]))
    assert rep.verdict == "inconclusive"


def test_eta_validated():
    pts = axis_points()
    V = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        is_k_tangential(pts, np.zeros(2), V, eta=1.5)


def test_rigid_motion_invariance():
    pts = parabola_points()
    x = np.zeros(2)
    V = np.array([[1.0], [0.0]])
    base = is_k_tangential(pts, x, V)
    base_ratios = [s.max_ratio for s in base.shells]
    rng = np.random.default_rng(0)
    for _ in range(50):
        ang = rng.uniform(0, 2 * math.pi)
        R = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        t = rng.uniform(-5, 5, size=2)
        rep = is_k_tangential(pts @ R.T + t, R @ x + t, R @ V)
        assert rep.verdict == base.verdict
        ratios = [s.max_ratio for s in rep.shells]
        assert len(ratios) == len(base_ratios)
        for a, b in zip(ratios, base_ratios):
            assert a == pytest.approx(b, abs=1e-12)


def test_report_serialization():
    rep = is_k_tangential(axis_points(), np.zeros(2), np.array([[1.0], [0.0]]))
    d = rep.to_json_dict()
    assert d["verdict"] == "tangential"
    assert "rule" in d


# ---------------------------------------------------------------------------
# sigma decomposition


def test_sigma_axis_single_piece():
    ok, pieces, _ = sigma_decompose(axis_points(), 1)
    assert ok
    assert len(pieces) == 1
    assert pieces[0].pass_fraction >= 0.9


def test_sigma_crossing_lines_two_pieces():
    ok, pieces, _ = sigma_decompose(crossing_lines(), 1, pieces=4)
    assert ok
    assert len(pieces) == 2


def noisy_crossing_lines(seed, per_line=128, noise=1e-4):
    """Three lines through the origin 60 degrees apart, turned by a seeded
    angle, with Gaussian noise."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi / 3.0) + math.pi / 3.0 * np.arange(3)
    lines = []
    for ang in angles:
        t = rng.uniform(-1.0, 1.0, size=per_line)
        d = np.array([math.cos(ang), math.sin(ang)])
        lines.append(t[:, None] * d + noise * rng.standard_normal((per_line, 2)))
    return np.vstack(lines)


@pytest.mark.parametrize("seed", [3, 8, 9])
def test_sigma_noisy_crossing_lines_three_pieces(seed):
    # a near-duplicate sample below the resolution floor must not turn
    # the fitted tangent off its line
    ok, pieces, _ = sigma_decompose(noisy_crossing_lines(seed), 1)
    assert ok
    assert len(pieces) == 3


def test_sigma_disc_fails():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(400, 2))
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    ok, _, _ = sigma_decompose(pts, 1)
    assert not ok


def test_sigma_too_many_pieces_fails():
    ok, pieces, _ = sigma_decompose(crossing_lines(), 1, pieces=1)
    assert not ok
    assert pieces == []


# ---------------------------------------------------------------------------
# I/O


def test_load_point_cloud_with_and_without_header(tmp_path):
    p1 = tmp_path / "a.csv"
    p1.write_text("x1,x2\n0.0,1.0\n2.0,3.0\n")
    p2 = tmp_path / "b.csv"
    p2.write_text("0.0,1.0\n2.0,3.0\n")
    a = load_point_cloud(p1)
    b = load_point_cloud(p2)
    assert np.array_equal(a, b)
    assert a.shape == (2, 2)
