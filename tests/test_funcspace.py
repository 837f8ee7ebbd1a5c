import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentia import funcspace
from tangentia.errors import NumericDomainError, SpecParseError
from tangentia.funcspace import (
    DEFAULT_QUADRATURE,
    DirectionalFunction,
    GridFunction,
    ball_average,
    ball_average_radii,
    make_gauss,
    parse_function_spec,
    sphere_average_derivative,
    unit_ball_volume,
    unit_sphere_area,
)


def tent_average(x, r):
    """Closed-form average of max(0, 1-|y|) over [x-r, x+r]."""

    def F(t):
        s = -1.0 if t < 0 else 1.0
        a = abs(t)
        return s * (a - 0.5 * a * a if a <= 1.0 else 0.5)

    if r == 0.0:
        return max(0.0, 1.0 - abs(x))
    return (F(x + r) - F(x - r)) / (2.0 * r)


# ---------------------------------------------------------------------------
# quadrature invariants


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_rule_integrates_one_to_volume(n):
    nodes, w = DEFAULT_QUADRATURE.ball_rule(n)
    assert nodes.shape[1] == n
    vol = unit_ball_volume(n)
    assert abs(float(np.sum(w)) - vol) < 1e-12 * vol


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_rule_integrates_one_to_area(n):
    dirs, w = DEFAULT_QUADRATURE.sphere_rule(n)
    area = unit_sphere_area(n)
    assert abs(float(np.sum(w)) - area) < 1e-10 * area
    norms = np.linalg.norm(dirs, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_ball_rule_scales_to_r_n(r):
    # integrating 1 over B(0,r) with the scaled rule gives omega_n r^n
    for n in (1, 2, 3):
        _, w = DEFAULT_QUADRATURE.ball_rule(n)
        total = float(np.sum(w)) * r**n
        assert abs(total - unit_ball_volume(n) * r**n) < 1e-11 * max(total, 1.0)


# ---------------------------------------------------------------------------
# ball_average


def test_ball_average_constant():
    f = DirectionalFunction(evaluator=lambda x: 3.25, dimension=2, label="c")
    for r in (0.0, 0.1, 2.0):
        assert ball_average(f, [0.4, -1.0], r) == pytest.approx(3.25, abs=1e-12)


def test_ball_average_linear_is_center_value():
    a = np.array([1.5, -2.0])
    f = DirectionalFunction(evaluator=lambda x: float(a @ x), dimension=2)
    x = np.array([0.3, 0.7])
    assert ball_average(f, x, 1.2) == pytest.approx(float(a @ x), abs=1e-10)


def test_ball_average_tent_closed_form():
    tent = parse_function_spec("tent")
    target = (3.0 - math.sqrt(7.0)) / 2.0
    got = ball_average(tent, [2.0], math.sqrt(7.0))
    assert got == pytest.approx(target, abs=1e-10)
    # a few more radii against the antiderivative oracle
    for x, r in [(0.0, 0.5), (0.5, 1.3), (-1.7, 2.2), (2.0, 0.9)]:
        assert ball_average(tent, [x], r) == pytest.approx(
            tent_average(x, r), abs=1e-9
        )


def test_ball_average_r_zero_and_limit():
    tent = parse_function_spec("tent")
    rng = np.random.default_rng(0)
    for x in rng.uniform(-2.0, 2.0, size=100):
        fx = tent([x])
        assert ball_average(tent, [x], 0.0) == fx
        assert abs(ball_average(tent, [x], 1e-4) - fx) < 1e-4


@pytest.mark.parametrize("r", [math.inf, math.nan])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nonfinite_radius_refused(r, n):
    # neither a silent 0.0 nor an error that blames f
    f = make_gauss(0.5, n)
    x = np.zeros(n)
    with pytest.raises(ValueError, match=f"finite.*{r}"):
        ball_average(f, x, r)
    with pytest.raises(ValueError, match=f"radius must be finite.*{r}"):
        sphere_average_derivative(f, x, r, np.eye(n)[0])


def test_ball_average_negative_radius_rejected():
    tent = parse_function_spec("tent")
    with pytest.raises(ValueError):
        ball_average(tent, [0.0], -0.1)


def test_ball_average_nonfinite_propagates_point():
    def ev(x):
        v = float(x[0])
        return math.inf if v == 0.0 else 1.0 / v

    f = DirectionalFunction(evaluator=ev, dimension=1)
    with pytest.raises(NumericDomainError):
        ball_average(f, [0.0], 0.0)


# ---------------------------------------------------------------------------
# ball_average_radii: the shell profile


def _counting(f):
    """f with a batch evaluator that records the size of every batch."""
    sizes = []

    def batch(pts):
        sizes.append(len(pts))
        return f.batch_evaluator(pts)

    return DirectionalFunction(
        evaluator=f.evaluator, dimension=f.dimension, batch_evaluator=batch
    ), sizes


@pytest.mark.parametrize(
    "radii",
    [
        [0.5, 0.2, 1.0],
        [0.2, 0.2, 1.0],
        [-0.1, 0.2],
        [0.1, math.nan],
        [0.1, math.inf],
    ],
    ids=["unsorted", "repeated", "negative", "nan", "inf"],
)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_average_radii_refuses_bad_radii(radii, n):
    f = make_gauss(0.5, n)
    with pytest.raises(ValueError, match="radii"):
        ball_average_radii(f, np.zeros(n), radii)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_average_radii_leading_zero_is_center_value(n):
    f = make_gauss(0.5, n)
    x = np.full(n, 0.3)
    radii = np.array([0.0, 0.1, 0.4, 0.5])
    out = ball_average_radii(f, x, radii)
    assert out[0] == f(x)
    for a, r in zip(out[1:], radii[1:]):
        assert a == pytest.approx(ball_average(f, x, r), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_average_radii_sparse_radii_accurate(n):
    # a wide gap is cut into pieces, so sparse radii lose no accuracy
    f = make_gauss(0.5, n)
    x = np.array([0.4, -0.2, 0.1][:n])
    out = ball_average_radii(f, x, [0.05, 1.5, 2.5])
    for a, r in zip(out, (0.05, 1.5, 2.5)):
        assert a == pytest.approx(ball_average(f, x, r), abs=1e-12)


@pytest.mark.parametrize("n, evals", [(1, 4_152), (2, 132_864), (3, 4_251_648)])
def test_ball_average_radii_cost_and_chunks(n, evals):
    # the maximal-operator grid: one ball rule, then 4 shells per gap, in
    # batches of at most _CHUNK_POINTS points
    f, sizes = _counting(make_gauss(0.5, n))
    radii = np.geomspace(1e-3, 100.0, 512)
    ball_average_radii(f, np.full(n, 0.2), radii)
    assert sum(sizes) == evals
    assert max(sizes) <= funcspace._CHUNK_POINTS


def test_ball_average_radii_chunking_does_not_change_values(monkeypatch):
    f = make_gauss(0.5, 3)
    x = np.array([1.1, 0.2, -0.3])
    radii = np.geomspace(1e-3, 20.0, 64)
    whole = ball_average_radii(f, x, radii)
    monkeypatch.setattr(funcspace, "_CHUNK_POINTS", 3000)
    chunked = ball_average_radii(f, x, radii)
    assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)


def test_ball_average_radii_checks_every_chunk():
    # f is non-finite only beyond |y| = 30, which late chunks reach
    def batch(pts):
        r = np.linalg.norm(pts, axis=1)
        return np.where(r > 30.0, np.nan, 1.0)

    f = DirectionalFunction(
        evaluator=lambda y: float(batch(y[None, :])[0]),
        dimension=3,
        batch_evaluator=batch,
    )
    with pytest.raises(NumericDomainError):
        ball_average_radii(f, np.zeros(3), np.geomspace(1e-3, 40.0, 512))


def _ascending_radii(draw, leading_zero: bool):
    r0 = draw(st.floats(1e-3, 1.0))
    steps = draw(st.lists(st.floats(1e-3, 0.6), min_size=0, max_size=8))
    radii = r0 * np.cumprod([1.0] + [1.0 + t for t in steps])
    radii = radii[radii <= 3.0]
    return np.concatenate(([0.0], radii)) if leading_zero else radii


@st.composite
def _affine_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    coord = st.floats(-2.0, 2.0)
    a = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    c = draw(st.floats(-5.0, 5.0))
    x = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    return n, a, c, x, _ascending_radii(draw, draw(st.booleans()))


@settings(max_examples=40)
@given(_affine_cases())
def test_ball_average_radii_affine_is_center_value(case):
    n, a, c, x, radii = case
    f = DirectionalFunction(
        evaluator=lambda y: float(a @ y + c),
        dimension=n,
        batch_evaluator=lambda p: p @ a + c,
    )
    fx = float(a @ x + c)
    out = ball_average_radii(f, x, radii)
    assert np.all(np.abs(out - fx) <= 1e-12 * (1.0 + abs(fx)))


@st.composite
def _gauss_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    s = draw(st.floats(0.4, 1.0))
    x = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    return n, s, x, _ascending_radii(draw, False)


@settings(max_examples=40)
@given(_gauss_cases())
def test_shell_profile_matches_ball_average_and_extends_exactly(case):
    n, s, x, radii = case
    f = make_gauss(s, n)
    out = ball_average_radii(f, x, radii)
    for k, r in enumerate(radii):
        # the refinement's extension returns the tabulated value itself
        assert funcspace._profile_at(f, x, radii, out, float(r)) == out[k]
        assert abs(out[k] - ball_average(f, x, r)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_profile_extension_between_radii(n):
    f = make_gauss(0.5, n)
    x = np.array([1.0, 0.3, 0.0][:n])
    radii = np.geomspace(0.01, 4.0, 64)
    out = ball_average_radii(f, x, radii)
    for r in (0.0123, 0.77, 1.3, 3.99):
        assert funcspace._profile_at(f, x, radii, out, r) == pytest.approx(
            ball_average(f, x, r), abs=1e-12
        )
    with pytest.raises(ValueError, match="below"):
        funcspace._profile_at(f, x, radii, out, 0.005)


# ---------------------------------------------------------------------------
# sphere_average_derivative


def test_sphere_derivative_linear_exact():
    a = np.array([2.0, -1.0])
    f = DirectionalFunction(evaluator=lambda x: float(a @ x), dimension=2)
    theta = np.array([1.0, 0.0])
    assert sphere_average_derivative(f, [0.3, 0.1], 1.0, theta) == pytest.approx(
        2.0, abs=1e-10
    )


def test_sphere_derivative_constant_zero():
    f = DirectionalFunction(evaluator=lambda x: 4.0, dimension=3)
    got = sphere_average_derivative(f, [0.0, 0.0, 0.0], 0.7, [0.0, 1.0, 0.0])
    assert abs(got) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_derivative_matches_fd_for_quadratics(n):
    rng = np.random.default_rng(3)
    Q = rng.uniform(-1.0, 1.0, size=(n, n))
    Q = 0.5 * (Q + Q.T)
    b = rng.uniform(-1.0, 1.0, size=n)
    f = DirectionalFunction(
        evaluator=lambda x: float(x @ Q @ x + b @ x), dimension=n
    )
    x = rng.uniform(-0.5, 0.5, size=n)
    theta = rng.standard_normal(n)
    theta /= np.linalg.norm(theta)
    r = 0.8
    h = 1e-5
    fd = (
        ball_average(f, x + h * theta, r) - ball_average(f, x - h * theta, r)
    ) / (2.0 * h)
    got = sphere_average_derivative(f, x, r, theta)
    assert got == pytest.approx(fd, abs=1e-6)


def test_sphere_derivative_tent_value():
    tent = parse_function_spec("tent")
    target = (math.sqrt(7.0) - 3.0) / (2.0 * math.sqrt(7.0))
    got = sphere_average_derivative(tent, [2.0], math.sqrt(7.0), [1.0])
    assert got == pytest.approx(target, abs=1e-6)


def test_sphere_derivative_rejects_nonpositive_radius():
    tent = parse_function_spec("tent")
    with pytest.raises(ValueError):
        sphere_average_derivative(tent, [0.0], 0.0, [1.0])


# ---------------------------------------------------------------------------
# mini-language parser


def test_parse_tent():
    f = parse_function_spec("tent")
    assert f.dimension == 1
    assert f.lipschitz == 1.0
    assert f.continuous
    assert f([0.0]) == 1.0
    assert f([2.0]) == 0.0


def test_parse_maxaffine_abs():
    f = parse_function_spec("maxaffine[(1,0),(-1,0)]")
    assert f.dimension == 1
    assert f.lipschitz == 1.0
    for x in (-1.5, -0.2, 0.0, 0.7):
        assert f([x]) == abs(x)


def test_parse_unicode_minus():
    f = parse_function_spec("maxaffine[(1,0),(−1,0)]")
    assert f([-2.0]) == 2.0


def test_parse_dist_two_points():
    f = parse_function_spec("dist[(-1,0),(1,0)]")
    assert f.dimension == 2
    assert f([0.0, 1.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_parse_gauss_with_dimension():
    f = parse_function_spec("gauss(0.5,2)")
    assert f.dimension == 2
    assert f([0.0, 0.0]) == 1.0


@pytest.mark.parametrize("spec", ["gauss(0.5,4)", "gauss(0.5,0)", "gauss(0.5,2.5)"])
def test_parse_gauss_dimension_out_of_range_rejected(spec):
    with pytest.raises(SpecParseError) as ei:
        parse_function_spec(spec)
    assert ei.value.position == len("gauss(0.5,")


def test_parse_dist_one_dimensional():
    f = parse_function_spec("dist[0, 2]")
    assert f.dimension == 1
    assert f([1.5]) == 0.5
    assert f([-3.0]) == 3.0


def test_parse_distpoly_closed_form():
    f = parse_function_spec("distpoly[(0,0),(2,0),(0,2)]")
    assert f.dimension == 2
    # inside, the distance is to the nearest edge
    assert f([0.5, 0.25]) == pytest.approx(0.25, abs=1e-15)
    assert f([0.5, 1.0]) == pytest.approx(0.5 / math.sqrt(2.0), abs=1e-15)
    # outside, across an edge
    assert f([1.0, -0.5]) == pytest.approx(0.5, abs=1e-15)
    assert f([2.0, 2.0]) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    # outside, next to the vertex (2, 0)
    assert f([2.3, -0.4]) == pytest.approx(0.5, abs=1e-15)
    assert f([1.0, 1.0]) == 0.0


@pytest.mark.parametrize(
    "spec", ["dist[(-1,0),(1,0),(0.3,0.7)]", "distpoly[(0,0),(2,0),(0.5,1.5)]"]
)
def test_distance_specs_batch_matches_scalar(spec):
    f = parse_function_spec(spec)
    pts = np.random.default_rng(3).uniform(-2.0, 3.0, size=(200, 2))
    batch = f.evaluate_many(pts)
    scalar = np.array([f(p) for p in pts])
    assert np.max(np.abs(batch - scalar)) <= 1e-15


def test_parse_infconv():
    f = parse_function_spec("infconv(abs, 1)")
    assert f([2.0]) == pytest.approx(1.5, abs=1e-6)


def test_parse_unknown_builtin_lists_available():
    with pytest.raises(SpecParseError) as ei:
        parse_function_spec("bogus")
    msg = str(ei.value)
    for name in funcspace.BUILTINS:
        assert name in msg


def test_parse_error_carries_position():
    with pytest.raises(SpecParseError) as ei:
        parse_function_spec("gauss(0.5")
    assert ei.value.position > 0


def test_parse_trailing_garbage_rejected():
    with pytest.raises(SpecParseError):
        parse_function_spec("tent extra")


# ---------------------------------------------------------------------------
# grid functions


def test_grid_roundtrip_and_node_exactness(tmp_path):
    tent = parse_function_spec("tent")
    g = GridFunction.from_function(tent, [-2.0], [2.0], (33,))
    path = tmp_path / "tent.csv"
    g.to_csv(path)
    g2 = GridFunction.from_csv(path)
    assert g2.resolution == g.resolution
    assert np.array_equal(g2.samples, g.samples)
    nodes = g2.axes()[0]
    vals = g2.interpolate(nodes[:, None])
    assert np.max(np.abs(vals - g2.samples)) == 0.0


def test_grid_function_2d_nodes_exact():
    f = DirectionalFunction(
        evaluator=lambda x: float(x[0] ** 2 - x[1]), dimension=2
    )
    g = GridFunction.from_function(f, [-1.0, -1.0], [1.0, 1.0], (9, 7))
    ax = g.axes()
    mesh = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = g.interpolate(pts)
    assert np.max(np.abs(vals - g.samples)) < 1e-14


def test_grid_degenerate_box_rejected():
    with pytest.raises(ValueError):
        GridFunction((0.0,), (0.0,), (4,), np.zeros(4))


@pytest.mark.parametrize("lo", [[math.nan, 0.0], [0.0, -math.inf]])
def test_grid_non_finite_box_rejected(lo):
    # every residual on a nan grid is nan, and nan >= tol is false: a
    # scan over such a box would flag nothing and report success
    from tangentia import maxop, nonsmooth, specials

    box = (lo, [1.0, 1.0])
    f = parse_function_spec("maxaffine[(1,0,0),(-1,0,0)]")
    A = specials.ClosedSetModel.from_points([[-1.0, 0.0], [1.0, 0.0]])
    coupling = lambda x, y: float(np.sum((x - y) ** 2))  # noqa: E731
    calls = [
        lambda: funcspace._box_grid(box, (3, 3), 2, 1),
        lambda: GridFunction.from_function(f, *box, (3, 3)),
        lambda: nonsmooth.singular_scan(f, box, 5),
        lambda: specials.medial_scan(A, box, 5),
        lambda: specials.inf_convolution(f, coupling, [0.0, 0.0], box, y_resolution=5),
        lambda: maxop.maximal_field(f, box, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_grid_sample_count_checked():
    with pytest.raises(ValueError):
        GridFunction((0.0,), (1.0,), (4,), np.zeros(5))


# ---------------------------------------------------------------------------
# DirectionalFunction plumbing


def test_evaluator_shape_checked():
    tent = parse_function_spec("tent")
    with pytest.raises(ValueError):
        tent([0.0, 1.0])


def test_lipschitz_bound_respected_by_quotients():
    f = parse_function_spec("maxaffine[(1,1,0),(-1,0.5,0.2)]")
    K = f.lipschitz
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        d = np.linalg.norm(x - y)
        if d < 1e-9:
            continue
        assert abs(f(x) - f(y)) <= K * d + 1e-9


def test_evaluate_many_matches_scalar():
    f = parse_function_spec("gauss(0.7,2)")
    pts = np.random.default_rng(2).uniform(-1, 1, size=(20, 2))
    batch = f.evaluate_many(pts)
    scalar = np.array([f(p) for p in pts])
    assert np.max(np.abs(batch - scalar)) < 1e-14


# ---------------------------------------------------------------------------
# the input gate: one row per defect an entry point showed on a bad point,
# direction or box


def _gate_rows():
    from tangentia import maxop, nonsmooth, specials, tangency
    from tangentia.semilinear import full_space

    tent = parse_function_spec("tent")
    gauss2 = make_gauss(0.5, 2)
    pair = specials.ClosedSetModel.from_points([[0.0, 0.0], [1.0, 0.0]])
    line = np.stack([np.linspace(-1.0, 1.0, 80), np.zeros(80)], axis=1)
    e1 = np.array([[1.0], [0.0]])
    nan = math.nan
    # a string is the message of the expected ValueError, a number the value
    return [
        # returned the average at (0.1, 0.1)
        ("ball-average-short-point", lambda: ball_average(gauss2, [0.1], 1.0),
         r"expected a point in R\^2"),
        # scipy's IntegrationWarning, then a NumericDomainError
        ("ball-average-nan", lambda: ball_average(tent, [nan], 1.0), "finite"),
        # returned 0.0
        ("call-nan", lambda: tent([nan]), "finite"),
        ("difference-quotient-nan",
         lambda: nonsmooth.difference_quotient(tent, [nan], [1.0]), "finite"),
        # returned NaNs
        ("quotient-ladder-nan",
         lambda: nonsmooth.quotient_ladder(tent, [nan], [1.0]), "finite"),
        # returned no normals
        ("kink-normals-nan", lambda: nonsmooth.kink_normals(gauss2, [nan, 0.0]),
         "finite"),
        # the error blamed r_max
        ("maximal-nan", lambda: maxop.maximal(tent, [nan]), "point.*finite"),
        # numpy broadcast and matmul messages, or a wrong number
        ("maximal-long-point", lambda: maxop.maximal(gauss2, [0.0, 0.0, 0.0]),
         r"expected a point in R\^2"),
        ("tau-W-in-R3", lambda: nonsmooth.tau(gauss2, [0.0, 0.0], full_space(3)),
         r"subspace W of R\^2"),
        ("dirderiv-short-theta",
         lambda: nonsmooth.directional_derivative(gauss2, [0.0, 0.0], [1.0]),
         r"expected a direction in R\^2"),
        # scanned a reversed box and found no medial point
        ("medial-reversed-box",
         lambda: specials.medial_scan(pair, ([1.0, 1.0], [-1.0, -1.0]), 33),
         "must exceed"),
        # a zero-width box raised a RuntimeWarning
        ("singular-scan-empty-box",
         lambda: nonsmooth.singular_scan(tent, ([0.0], [0.0]), 5), "must exceed"),
        # silently used 2 nodes
        ("maximal-field-fractional-resolution",
         lambda: maxop.maximal_field(tent, ([-1.0], [1.0]), 2.7), "resolution"),
        # V = 0 read "tangential", a nan base "inconclusive"
        ("tangency-zero-V",
         lambda: tangency.is_k_tangential(line, [0.0, 0.0], np.zeros((2, 1))),
         "nonzero"),
        ("tangency-nan-base",
         lambda: tangency.is_k_tangential(line, [nan, 0.0], e1), "finite"),
        # distances to a set with a nan point read nan
        ("closed-set-nan-point",
         lambda: specials.ClosedSetModel.from_points([[nan, 0.0], [1.0, 0.0]]),
         "finite"),
        ("closed-polygon-nan-vertex",
         lambda: specials.ClosedSetModel.from_polygon([[0, 0], [1, nan], [0, 1]]),
         "finite"),
        # returned twice the unit-direction value, and 0.0
        ("distance-derivative-long-theta",
         lambda: specials.distance_directional_derivative(pair, [-0.5, 0], [2, 0]),
         -1.0),
        ("distance-derivative-zero-theta",
         lambda: specials.distance_directional_derivative(pair, [-0.5, 0], [0, 0]),
         "nonzero"),
    ]


GATE_ROWS = _gate_rows()


@pytest.mark.parametrize(
    "call, expected", [r[1:] for r in GATE_ROWS], ids=[r[0] for r in GATE_ROWS]
)
def test_input_gate(call, expected, capfd):
    # pytest turns RuntimeWarning and IntegrationWarning into errors; capfd
    # also sees what LAPACK writes to the C-level stderr
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected
    assert capfd.readouterr().err == ""
