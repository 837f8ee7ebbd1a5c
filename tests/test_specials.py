import math

import numpy as np
import pytest

from tangentia import nonsmooth, specials
from tangentia.errors import NumericDomainError
from tangentia.funcspace import DirectionalFunction, parse_function_spec
from tangentia.semilinear import full_space
from tangentia.specials import (
    ClosedSetModel,
    distance_directional_derivative,
    distance_function,
    inf_convolution,
    medial_scan,
    nearest_set,
)

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


# ---------------------------------------------------------------------------
# nearest sets


def test_nearest_single_point():
    A = ClosedSetModel.from_points([[0.0, 0.0]])
    d, near = nearest_set(A, [1.0, 0.0])
    assert d == pytest.approx(1.0)
    assert len(near) == 1
    assert np.allclose(near[0], [0.0, 0.0])


def test_nearest_two_points_tie():
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    d, near = nearest_set(A, [0.0, 1.0])
    assert d == pytest.approx(math.sqrt(2.0))
    assert len(near) == 2


def test_nearest_square_center_four_midpoints():
    A = ClosedSetModel.from_polygon(SQUARE)
    d, near = nearest_set(A, [0.5, 0.5])
    assert d == pytest.approx(0.5, abs=1e-12)
    assert len(near) == 4
    mids = {(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)}
    got = {(round(p[0], 9), round(p[1], 9)) for p in near}
    assert got == mids


def test_nearest_outside_corner_counts_shared_vertex_once():
    A = ClosedSetModel.from_polygon(SQUARE)
    d, near = nearest_set(A, [1.5, 1.5])
    assert d == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert len(near) == 1
    assert np.array_equal(near[0], [1.0, 1.0])


def test_nearest_on_set_rejected():
    A = ClosedSetModel.from_points([[0.0, 0.0]])
    with pytest.raises(ValueError):
        nearest_set(A, [0.0, 0.0])


@pytest.mark.parametrize(
    "verts", [SQUARE + [SQUARE[0]], SQUARE[:2] + [SQUARE[1]] + SQUARE[2:]]
)
def test_polygon_zero_length_edge_rejected(verts):
    # a repeated vertex, at the end or inside, would make the edge
    # projection 0/0 and every distance nan
    with pytest.raises(ValueError, match="zero-length edge"):
        ClosedSetModel.from_polygon(verts)
    with pytest.raises(ValueError, match="zero-length edge"):
        parse_function_spec(
            "distpoly[" + ",".join(f"({x:g},{y:g})" for x, y in verts) + "]"
        )


def test_nearest_non_finite_point_rejected():
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        nearest_set(A, [math.nan, 0.0])
    with pytest.raises(ValueError, match="finite"):
        distance_directional_derivative(A, [math.nan, 0.0], [1.0, 0.0])


def test_medial_scan_single_point_axis_rejected():
    # one node per axis has no cell size to set the tie tolerance from
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="2 grid points"):
        medial_scan(A, ([-0.5, -0.5], [0.5, 0.5]), 1)
    with pytest.raises(ValueError, match="2 grid points"):
        medial_scan(A, ([-0.5, -0.5], [0.5, 0.5]), (9, 1))


def test_medial_scan_box_dimension_checked():
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="resolution"):
        medial_scan(A, ([-0.5], [0.5]), 9)
    with pytest.raises(ValueError, match="resolution"):
        medial_scan(A, ([-0.5, -0.5], [0.5, 0.5]), (9,))


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        ClosedSetModel.from_points(np.zeros((0, 2)))


# ---------------------------------------------------------------------------
# distance derivative


def test_distance_derivative_radial():
    A = ClosedSetModel.from_points([[0.0, 0.0]])
    assert distance_directional_derivative(A, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)


def test_distance_derivative_two_point_min():
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    d = distance_directional_derivative(A, [0.0, 1.0], [1.0, 0.0])
    assert d == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)


def test_distance_derivative_square_center():
    A = ClosedSetModel.from_polygon(SQUARE)
    d = distance_directional_derivative(A, [0.5, 0.5], [1.0, 0.0])
    assert d == pytest.approx(-1.0, abs=1e-12)


def test_distance_function_one_lipschitz():
    A = ClosedSetModel.from_points([[0.2, -0.4], [0.9, 0.6], [-1.0, 0.0]])
    g = distance_function(A)
    assert g.lipschitz == 1.0
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        gap = np.linalg.norm(x - y)
        if gap < 1e-9:
            continue
        assert abs(g(x) - g(y)) <= gap * (1.0 + 1e-9)


def test_polygon_distance_matches_per_edge_reference():
    verts = np.array([[0.0, 0.0], [2.0, 0.3], [1.4, 1.7], [-0.3, 1.1]])
    g = distance_function(ClosedSetModel.from_polygon(verts))
    pts = np.random.default_rng(5).uniform(-1.0, 3.0, size=(2500, 2))  # several blocks
    ref = []
    for p in pts:
        best = math.inf
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            ab = b - a
            t = min(max(float((p - a) @ ab) / float(ab @ ab), 0.0), 1.0)
            best = min(best, float(np.linalg.norm(p - (a + t * ab))))
        ref.append(best)
    # summation order differs from the loop: allow a few ulps at scale 4
    assert np.max(np.abs(g.evaluate_many(pts) - ref)) <= 8 * 4.0 * np.finfo(float).eps


def test_distance_formula_vs_fd():
    rng = np.random.default_rng(4)
    h = 1e-5
    done = 0
    while done < 50:
        pts = rng.uniform(-1, 1, size=(5, 2))
        A = ClosedSetModel.from_points(pts)
        x = rng.uniform(-1.5, 1.5, size=2)
        d = np.sort(np.linalg.norm(pts - x[None, :], axis=1))
        if d[0] < 0.1 or (1e-7 < d[1] - d[0] < 1e-2):
            continue
        th = rng.standard_normal(2)
        th /= np.linalg.norm(th)
        g = distance_function(A)
        fd = (g(x + h * th) - g(x)) / h
        assert distance_directional_derivative(A, x, th) == pytest.approx(fd, abs=1e-3)
        done += 1


# ---------------------------------------------------------------------------
# medial scan


def test_medial_single_point_empty_axis():
    A = ClosedSetModel.from_points([[0.0, 0.0]])
    scan = medial_scan(A, ([1.0, 1.0], [2.0, 2.0]), 16)
    assert all(p.multiplicity == 1 for p in scan)


def test_medial_two_point_bisector():
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    res = 33
    scan = medial_scan(A, ([-0.9, -0.9], [0.9, 0.9]), res)
    axis = [p for p in scan if p.multiplicity >= 2]
    cell = 1.8 / (res - 1)
    assert axis
    assert all(abs(p.point[0]) <= cell for p in axis)


def test_medial_square_diagonals():
    A = ClosedSetModel.from_polygon(SQUARE)
    res = 64
    scan = medial_scan(A, ([0.05, 0.05], [0.95, 0.95]), res)
    axis = [p for p in scan if p.multiplicity >= 2]
    cell = 0.9 / (res - 1)
    assert axis
    for p in axis:
        x, y = p.point
        off = min(abs(x - y), abs(x + y - 1.0)) / math.sqrt(2.0)
        assert off <= 0.5 * cell + 1e-12


def test_medial_multiplicity_vs_gamma_and_tau():
    # multiplicity-1 points: distance function differentiable (gamma = n);
    # multiplicity >= 2: tau at least half the direction gap
    A = ClosedSetModel.from_polygon(SQUARE)
    g = distance_function(A)
    # off-diagonal interior point
    assert nonsmooth.gamma(g, [0.5, 0.2]).degree == 2
    # a diagonal point (strict tie between bottom and left edge)
    x = np.array([0.3, 0.3])
    _, near = nearest_set(A, x)
    assert len(near) >= 2
    dirs = [(x - y) / np.linalg.norm(x - y) for y in near]
    gap = min(
        1.0 - float(dirs[i] @ dirs[j])
        for i in range(len(dirs))
        for j in range(i + 1, len(dirs))
    )
    est = nonsmooth.tau(g, x, full_space(2))
    assert est.value >= gap / 2.0 - 1e-6


def test_medial_csv(tmp_path):
    A = ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    scan = medial_scan(A, ([-0.5, -0.5], [0.5, 0.5]), 9)
    path = tmp_path / "med.csv"
    specials.medial_to_csv(scan, path, 2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,dist,multiplicity"
    assert len(lines) == len(scan) + 1


# ---------------------------------------------------------------------------
# infimal convolution


def quad_coupling(t):
    return lambda x, y: float(np.sum((x - y) ** 2)) / (2.0 * t)


def test_infconv_zero_u():
    u = DirectionalFunction(evaluator=lambda y: 0.0, dimension=1)
    v, mins, boundary = inf_convolution(u, quad_coupling(1.0), [0.3], ([-2.0], [2.0]))
    assert v == pytest.approx(0.0, abs=1e-10)
    assert any(abs(float(m[0]) - 0.3) < 1e-5 for m in mins)
    assert not boundary


def test_infconv_huber_outer():
    u = parse_function_spec("abs")
    v, mins, _ = inf_convolution(u, quad_coupling(1.0), [2.0], ([-4.0], [4.0]))
    assert v == pytest.approx(1.5, abs=1e-6)
    assert any(abs(float(m[0]) - 1.0) < 1e-4 for m in mins)


def test_infconv_huber_inner():
    u = parse_function_spec("abs")
    v, mins, _ = inf_convolution(u, quad_coupling(1.0), [0.5], ([-4.0], [4.0]))
    assert v == pytest.approx(0.125, abs=1e-6)
    assert any(abs(float(m[0])) < 1e-4 for m in mins)


def test_infconv_boundary_strict_raises():
    u = DirectionalFunction(evaluator=lambda y: -float(y[0]), dimension=1)
    with pytest.raises(ValueError):
        inf_convolution(
            u, quad_coupling(100.0), [0.0], ([-1.0], [1.0]), strict=True
        )


@pytest.mark.parametrize("x", [[math.nan], [math.inf]])
def test_infconv_non_finite_point_rejected(x):
    u = parse_function_spec("abs")
    with pytest.raises(ValueError, match="finite"):
        inf_convolution(u, quad_coupling(1.0), x, ([-4.0], [4.0]))


@pytest.mark.parametrize("y_resolution", [1, 0])
def test_infconv_single_point_y_grid_rejected(y_resolution):
    # one node per axis has no cell size; zero nodes have no minimum
    u = parse_function_spec("abs")
    with pytest.raises(ValueError, match="2 grid points"):
        inf_convolution(
            u, quad_coupling(1.0), [2.0], ([-4.0], [4.0]), y_resolution=y_resolution
        )


def test_infconv_2d():
    u = DirectionalFunction(
        evaluator=lambda y: float(np.abs(y).sum()), dimension=2
    )
    v, _, _ = inf_convolution(
        u, quad_coupling(1.0), [2.0, 0.0], ([-4.0, -4.0], [4.0, 4.0]), y_resolution=65
    )
    assert v == pytest.approx(1.5, abs=1e-5)


def huber(x, t=1.0):
    """(value, minimizer) of min_y |y| + (x - y)^2 / (2t)."""
    if abs(x) <= t:
        return x * x / (2.0 * t), 0.0
    return abs(x) - t / 2.0, x - math.copysign(t, x)


@pytest.mark.parametrize("x", [-2.5, -0.4, 0.0, 0.7, 2.2])
def test_infconv_huber_closed_form_both_entry_points(x):
    value, y_star = huber(x)
    spec = parse_function_spec("infconv(abs,1)")
    assert abs(spec([x]) - value) <= 1e-9
    v, mins, boundary = inf_convolution(
        parse_function_spec("abs"), quad_coupling(1.0), [x], ([-4.0], [4.0])
    )
    assert abs(v - value) <= 1e-9
    assert len(mins) == 1
    assert abs(float(mins[0][0]) - y_star) <= 1e-6
    assert not boundary


@pytest.mark.parametrize(
    "inner, x, t",
    [
        ("abs", [-2.5], 0.5),
        ("abs", [0.7], 1.0),
        ("abs", [1.001], 3.0),
        ("tent", [0.9], 2.0),
        ("gauss(0.5,2)", [0.4, -0.3], 1.0),
        ("maxaffine[(1,0,0),(-1,0,0),(0,1,0.5)]", [0.6, 0.2], 1.0),
    ],
)
def test_infconv_spec_matches_inf_convolution(inner, x, t):
    # the spec searches x +- (K t + 1) on 257 nodes in 1D, 16 per axis in 2D
    u = parse_function_spec(inner)
    x = np.array(x)
    reach = u.lipschitz * t + 1.0
    res = 257 if u.dimension == 1 else 16
    want, _, _ = inf_convolution(
        u, quad_coupling(t), x, (x - reach, x + reach), y_resolution=res
    )
    got = parse_function_spec(f"infconv({inner},{t})")(x)
    assert abs(got - want) <= 1e-12


def test_infconv_two_nearest_points_1d():
    u = parse_function_spec("dist[-1,1]")
    v, mins, _ = inf_convolution(u, quad_coupling(1.0), [0.0], ([-3.3], [2.9]))
    assert v == pytest.approx(0.5, abs=1e-9)
    assert sorted(float(m[0]) for m in mins) == pytest.approx([-1.0, 1.0], abs=1e-6)


def test_infconv_two_nearest_points_2d():
    # on this 65^2 grid neither minimizer (+-1, 0) is a node
    u = parse_function_spec("dist[(-1,0),(1,0)]")
    v, mins, boundary = inf_convolution(
        u, quad_coupling(1.0), [0.0, 0.0], ([-3.0, -3.0], [3.0, 3.0]), y_resolution=65
    )
    assert v == pytest.approx(0.5, abs=1e-9)
    got = sorted((float(m[0]), float(m[1])) for m in mins)
    assert np.allclose(got, [(-1.0, 0.0), (1.0, 0.0)], atol=1e-6)
    assert not boundary


def test_infconv_flat_single_descent():
    # (x - y)^2 / 200 stays within one cell's length (1/64) of its minimum
    # for |x - y| < 1.77: a band in length units seeded ~220 descents; one
    # grid-local minimum means one descent
    calls = []
    u = DirectionalFunction(evaluator=lambda y: calls.append(1) or 0.0, dimension=1)
    v, mins, boundary = inf_convolution(u, quad_coupling(100.0), [0.3], ([-2.0], [2.0]))
    assert v == pytest.approx(0.0, abs=1e-12)
    assert len(mins) == 1
    assert abs(float(mins[0][0]) - 0.3) <= 1e-6
    assert not boundary
    assert len(calls) < 257 + 100  # the grid and one short descent


def test_infconv_well_between_nodes():
    # the deeper well (-0.1 at q, midway between two nodes) reads 0.144
    # on the grid, above the shallow well's node at 0: a band of one cell
    # (1/32) in value units never seeds it
    q = 1.0 + 1.0 / 64.0
    u = DirectionalFunction(
        evaluator=lambda y: min(1e3 * y[0] ** 2, 1e3 * (y[0] - q) ** 2 - 0.1),
        dimension=1,
    )
    v, mins, _ = inf_convolution(u, quad_coupling(1e3), [0.5], ([-4.0], [4.0]))
    assert v == pytest.approx(-0.1 + (0.5 - q) ** 2 / 2e3, abs=1e-9)
    assert len(mins) == 1
    assert abs(float(mins[0][0]) - q) <= 1e-6


def test_infconv_non_finite_objective_rejected():
    # a nan objective returned (nan, [], False)
    u = DirectionalFunction(
        evaluator=lambda y: math.nan if y[0] > 1.0 else 0.0, dimension=1
    )
    with pytest.raises(NumericDomainError):
        inf_convolution(u, quad_coupling(1.0), [0.0], ([-4.0], [4.0]))


@pytest.mark.parametrize(
    "box",
    [([4.0], [-4.0]), ([2.0], [2.0]), ([-1.0, 1.0], [1.0, 1.0])],
)
def test_infconv_empty_y_box_rejected(box):
    # a reversed box returned (1.5, [], False); a zero-width one never
    # flagged the boundary
    u = parse_function_spec("abs" if len(box[0]) == 1 else "gauss(0.5,2)")
    x = [2.0] * len(box[0])
    with pytest.raises(ValueError, match="must exceed"):
        inf_convolution(u, quad_coupling(1.0), x, box, y_resolution=9)
