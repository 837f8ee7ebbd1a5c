import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tangentia import funcspace
from tangentia.errors import NumericDomainError, SpecParseError
from tangentia.funcspace import (
    DEFAULT_QUADRATURE,
    DirectionalFunction,
    GridFunction,
    QuadratureConfig,
    absolute,
    ball_average,
    ball_average_radii,
    make_gauss,
    make_maxaffine,
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
    """f, kinks and all, with a batch evaluator that records the size of
    every batch."""
    sizes = []

    def batch(pts):
        sizes.append(len(pts))
        return f.batch_evaluator(pts)

    return replace(f, batch_evaluator=batch), sizes


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


@pytest.mark.parametrize("n, evals", [(1, 4_248), (2, 135_936), (3, 1_089_536)])
def test_ball_average_radii_cost_and_chunks(n, evals):
    # the maximal-operator grid: the first ball as 20 pieces of 4 shells
    # from 0, then 4 shells per gap, in batches of at most _CHUNK_POINTS
    # points; in 3D each shell of the first rung costs 128 + 32 directions
    # and one in 4 another 512 (its audit), each one of the second rung
    # 512 + 128, each one of the audited segment 512 and one in 4 another
    # 2,048, each one of the negligible tail, which the audited segment
    # enters here, 512 (1,232,384 with the first ball on the second rung
    # and no audited segment; 1,551,872 with no first rung either;
    # 2,367,488 with no tail either; all on 2,048 directions: 4,349,952)
    # (of a gauss that declares no zero radius, so every shell is evaluated)
    f, sizes = _counting(replace(make_gauss(0.5, n), zero_outside=None))
    radii = np.geomspace(1e-3, 100.0, 512)
    ball_average_radii(f, np.full(n, 0.2), radii)
    assert sum(sizes) == evals
    assert max(sizes) <= funcspace._CHUNK_POINTS


@pytest.mark.parametrize("n, evals", [(1, 3_668), (2, 117_440), (3, 941_568)])
def test_ball_average_radii_cost_with_zero_radius(n, evals):
    # gauss(0.5) declares its zero radius 19.36, so on the same grid the
    # shells beyond 19.36 + |x| (radii up to 100) are not evaluated (in
    # 3D 1,084,416 with the first ball on the second rung and no audited
    # segment, 1,403,904 with no first rung either and 1,775,616 with no
    # tail either)
    f, sizes = _counting(make_gauss(0.5, n))
    ball_average_radii(f, np.full(n, 0.2), np.geomspace(1e-3, 100.0, 512))
    assert sum(sizes) == evals
    assert max(sizes) <= funcspace._CHUNK_POINTS


def test_ball_average_radii_chunking_does_not_change_values(monkeypatch):
    f = make_gauss(0.5, 3)
    x = np.array([1.1, 0.2, -0.3])
    radii = np.geomspace(1e-3, 20.0, 64)
    whole = ball_average_radii(f, x, radii)
    monkeypatch.setattr(funcspace, "_CHUNK_POINTS", 3000)
    counted, sizes = _counting(f)
    chunked = ball_average_radii(counted, x, radii)
    assert np.allclose(chunked, whole, rtol=1e-14, atol=0.0)
    # a chunk of the 128-direction rung is 23 shells here, whose 6 audited
    # shells on 512 directions would be 3,072 points: the audit runs in
    # chunks of its own, so no evaluation outgrows the buffer
    assert max(sizes) <= 3000


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


def _recorded(batch, n):
    """f with this batch evaluator, and the list of every batch it was given."""
    seen = []

    def record(pts):
        seen.append(np.array(pts))  # the kernel reuses its coordinate buffer
        return batch(pts)

    f = DirectionalFunction(
        evaluator=lambda y: float(record(y[None, :])[0]), dimension=n, batch_evaluator=record
    )
    return f, seen


@pytest.mark.parametrize("where", ["ball rule", "late annulus"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_average_radii_names_first_non_finite_point(n, bad, where):
    # a non-finite value in the first ball ("ball rule"), or in a chunk of
    # annuli near the largest radius, is refused at the first point of the
    # evaluation order where f is non-finite
    x = np.array([0.3, -0.2, 0.1][:n])
    radii = np.geomspace(1e-3, 40.0, 512)
    lo, hi = (0.0, 0.5e-3) if where == "ball rule" else (30.0, math.inf)

    def batch(pts):
        d = pts - x
        r = np.linalg.norm(d, axis=1)
        return np.where((r > lo) & (r < hi) & (d[:, 1] > 0.0), bad, 1.0)

    f, seen = _recorded(batch, n)
    with pytest.raises(NumericDomainError) as err:
        ball_average_radii(f, x, radii)
    pts = np.concatenate(seen)
    first = pts[np.argmax(~np.isfinite(batch(pts)))]
    assert err.value.point == tuple(first.tolist())
    assert err.value.value == bad or (math.isnan(bad) and math.isnan(err.value.value))
    if where == "late annulus":
        # the first ball's batches and the first chunk of annuli pass
        q = DEFAULT_QUADRATURE
        dirs = funcspace._ball_directions(n, q.radial_order, q.angular_order)[0]
        shells = math.ceil(1.0 / funcspace._MAX_PIECE) * funcspace._GAP_NODES
        ball_batches = -(-shells // (funcspace._CHUNK_POINTS // len(dirs)))
        assert len(seen) > ball_batches + 1
        assert np.all(np.isfinite(batch(np.concatenate(seen[: ball_batches + 1]))))
        assert np.linalg.norm(first - x) > 30.0


@pytest.mark.parametrize("n", [2, 3])
def test_ball_average_radii_overflowing_sum_is_not_refused(n):
    # every value is finite, but the direction sums beyond |y| = 1 overflow:
    # numpy warns, and the averages there read inf, with no NumericDomainError
    def batch(pts):
        return np.where(np.linalg.norm(pts, axis=1) > 1.0, 1e308, 1.0)

    f = DirectionalFunction(
        evaluator=lambda y: float(batch(y[None, :])[0]), dimension=n, batch_evaluator=batch
    )
    with pytest.warns(RuntimeWarning, match="overflow"):
        out = ball_average_radii(f, np.zeros(n), [0.0, 0.5, 1.0, 2.0, 3.0])
    assert np.allclose(out[:3], 1.0, rtol=0.0, atol=1e-14)
    assert np.all(out[3:] == math.inf)


@pytest.mark.parametrize("n, limit_mb", [(2, 2.0), (3, 4.0)])
def test_ball_average_radii_peak_memory(n, limit_mb):
    # the maximal-operator grid and its probes are evaluated in
    # cache-sized chunks
    f = make_gauss(0.5, n)
    x = np.full(n, 0.2)
    radii = np.geomspace(1e-3, 100.0, 512)
    ball_average_radii(f, x, radii)  # builds the cached quadrature rules
    tracemalloc.start()
    try:
        profile = funcspace._ShellProfile(f, x, radii)
        for r in (0.5, 7.7, 99.0):
            profile(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6


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


@settings(max_examples=90)
@given(
    st.sampled_from([1, 2, 3]),
    st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3),
    st.floats(-5.0, 5.0),
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    st.floats(1e-3, 30.0),
)
def test_ball_average_of_affine_is_center_value(n, a, c, x, r):
    a, x = np.array(a[:n]), np.array(x[:n])
    f = DirectionalFunction(
        evaluator=lambda y: float(a @ y + c),
        dimension=n,
        batch_evaluator=lambda p: p @ a + c,
    )
    fx = float(a @ x + c)
    tol = 1e-13 * (1.0 + abs(fx) + r * float(np.linalg.norm(a)))
    assert abs(ball_average(f, x, r) - fx) <= tol


def _segments(profile, quadrature=DEFAULT_QUADRATURE):
    """A 3D profile's bounds and the radial order of each segment's rule:
    the quadrature's own, the half order or the quarter order."""
    q, rungs = quadrature.radial_order, [rule[1] for rule, _ in profile.rungs]
    return profile.bounds, [q if w is profile.wdir else q // 2 if w is rungs[-1] else q // 4 for _, w in profile.rules]


def _annulus_reference(f, x, lo, hi, quadrature, scale=1.0, segments=None):
    """_ShellProfile.annulus_integrals with the broadcast coordinate fill:
    the shells between consecutive bounds of segments = (bounds, orders)
    on the rule of that radial order, each segment run in its own chunks;
    without segments, every shell on the quadrature's own rule."""
    n = f.dimension
    q, ang = quadrature.radial_order, quadrature.angular_order
    pieces = np.maximum(1, np.ceil((hi - lo) / (funcspace._MAX_PIECE * hi))).astype(int)
    gap = np.repeat(np.arange(len(lo)), pieces)
    j = np.arange(len(gap)) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    step = (hi - lo)[gap] / pieces[gap]
    a = lo[gap] + j * step
    b = np.where(j == pieces[gap] - 1, hi[gap], a + step)
    if f.kinks:
        cuts = np.abs(np.asarray(f.kinks) - x[0])
        cuts = cuts[(cuts > scale * lo[0]) & (cuts < scale * hi[-1])] / scale
        ends = np.union1d(np.append(a, hi[-1]), cuts)
        a, b = ends[:-1], ends[1:]
        gap = np.searchsorted(hi, a, side="right")
    half = 0.5 * (b - a)
    s = ((0.5 * (a + b))[:, None] + half[:, None] * funcspace._GL_NODES).ravel()
    shell = np.empty(len(s))
    bounds, orders = segments or ((), (q,))
    ends = [int(np.sum(s * scale < b)) for b in bounds] + [len(s)]
    for start, stop, order in zip([0] + ends, ends, orders):
        dirs, wdir = funcspace._ball_directions(n, order, ang)
        m = len(dirs)
        per_chunk = max(1, funcspace._CHUNK_POINTS // m)
        for i in range(start, stop, per_chunk):
            k = min(per_chunk, stop - i)
            coords = np.empty((n, k, m))
            np.multiply((s * scale)[None, i : i + k, None], dirs.T[:, None, :], out=coords)
            coords += x[:, None, None]
            vals = f.evaluate_many(coords.reshape(n, -1).T)
            shell[i : i + k] = vals.reshape(-1, m) @ wdir
    radial = (s ** (n - 1) * shell).reshape(-1, funcspace._GAP_NODES) @ funcspace._GL_WEIGHTS
    return np.bincount(gap, weights=half * radial, minlength=len(lo))


@pytest.mark.parametrize(
    "f, x, scale",
    [
        (funcspace.make_tent(), [0.3], 1.0),
        (funcspace.make_tent(), [-0.45], 0.7),
        (make_maxaffine([[1.0, 0.5], [-1.0, 0.2], [0.0, -1.0]], [0.0, 0.1, 0.2]), [0.2, -0.3], 1.0),
        (make_gauss(0.5, 2), [0.7, 0.4], 1.0),
        (make_gauss(0.5, 3), [1.3, 0.2, -0.1], 1.0),
    ],
    ids=["tent", "tent-scaled", "maxaffine-2d", "gauss-2d", "gauss-3d"],
)
def test_annulus_integrals_match_broadcast_fill_bitwise(f, x, scale):
    # in 3D the profile's bounds split the annuli between its three rules:
    # the first rung's end (0.048 here), the second rung's (0.52), the
    # switch, where the audited segment ends (3.2), the tail from 7.44 and
    # the full rule again from the largest radius on
    x = np.array(x)
    radii = np.geomspace(1e-3, 20.0, 64)
    lo, hi = radii[:-1], radii[1:]
    profile = funcspace._ShellProfile(f, x, radii)
    assert (f.dimension == 3) == (radii[0] < profile.switch < radii[-1])
    assert len(profile.bounds) == 5 * (f.dimension == 3)
    got = profile.annulus_integrals(lo, hi, scale)
    want = _annulus_reference(f, x, lo, hi, DEFAULT_QUADRATURE, scale, _segments(profile))
    assert np.all(got == want)


def _probe_reference(profile, radii, r):
    """A radius search's probe at r as one annulus integral: the tabulated
    integral up to the largest radius g <= r plus the annulus (g, r)."""
    k = int(np.searchsorted(radii, r, side="right")) - 1
    g, n = float(radii[k]), profile.n
    vol = unit_ball_volume(n)
    annulus = profile.annulus_integrals(np.array([g]), np.array([r]))
    return float((profile.table[k] * vol * g**n + annulus[0]) / (vol * r**n))


@pytest.mark.parametrize(
    "f, x, radii, probes",
    [
        (make_gauss(0.5), [0.3], np.geomspace(1e-3, 5.0, 64), [0.0123, 0.77, 1.31, 4.99]),
        # the tent's kinks lie 0.3, 0.7 and 1.3 from x: (0.2, 0.45) is cut at 0.3
        (funcspace.make_tent(), [0.3], [0.1, 0.2, 0.5, 1.0, 2.0], [0.45, 0.21, 0.8, 1.7]),
        (make_maxaffine([[1.0], [-0.5], [0.25]], [0.0, 0.3, -0.2]), [-0.37], [0.05, 0.6, 2.0], [0.3, 1.1, 1.95]),
        (make_gauss(0.5, 2), [0.7, 0.4], np.geomspace(1e-2, 4.0, 32), [0.0101, 0.5, 3.9]),
        (make_gauss(0.5, 3), [1.3, 0.2, -0.1], [0.02, 0.2, 1.0, 3.0], [0.021, 0.21, 2.47, 3.3]),
    ],
    ids=["gauss-1d", "tent", "maxaffine-1d", "gauss-2d", "gauss-3d"],
)
def test_shell_profile_probe_is_one_annulus_integral_bitwise(f, x, radii, probes):
    # a probe is the annulus integral of its own gap, piece for piece: every
    # value is bitwise the reference's, from 4 shells on each of its pieces
    # (a multi-piece gap in every case: (1, 2.47) is 12 pieces in 3D)
    # (f without its zero radius, so every shell of a probe is evaluated)
    f, sizes = _counting(absolute(replace(f, zero_outside=None)))
    x, radii = np.array(x), np.array(radii, dtype=float)
    # (in 3D, the gap (0.02, 0.021) lies on the first rung, to 0.049, and
    # evaluates 128 directions a shell; (0.2, 0.21) on the second, to
    # 0.53: 512; (1, 2.47) on the audited segment, which holds to the
    # largest radius, 3: 512; (3, 3.3) beyond it, on the full rule: 2,048)
    profile = funcspace._ShellProfile(f, x, radii)
    assert profile.table.tobytes() == ball_average_radii(f, x, radii).tobytes()
    cuts = np.abs(np.array(f.kinks) - x[0]) if f.kinks else np.zeros(0)
    many = 0
    for r in probes:
        g = radii[np.searchsorted(radii, r, side="right") - 1]
        pieces = max(1, math.ceil((r - g) / (funcspace._MAX_PIECE * r)))
        pieces += int(np.sum((cuts > g) & (cuts < r)))
        many += pieces > 1
        segment = int(np.searchsorted(profile.bounds, r, side="right"))
        assert np.searchsorted(profile.bounds, g, side="right") == segment
        m = len(profile.rules[segment][1])
        del sizes[:]
        got = profile(r)
        assert sum(sizes) == funcspace._GAP_NODES * m * pieces
        assert got == _probe_reference(profile, radii, r)
    assert many


@pytest.mark.parametrize(
    "n, quadrature, m",
    [(2, QuadratureConfig(angular_order=16), 16), (3, QuadratureConfig(radial_order=8), 128)],
    ids=["2d-16-angles", "3d-128-directions"],
)
def test_shell_profile_probes_with_its_own_quadrature(n, quadrature, m):
    # a probe of a profile built on a coarser rule evaluates that rule's m
    # directions, not the default rule's 64 (2D) or 2,048 (3D), and agrees
    # with that rule's one-gap reference and its ball_average
    f, sizes = _counting(replace(make_gauss(0.5, n), zero_outside=None))
    x, radii = np.full(n, 0.2), np.array([0.1, 1.0, 2.0])
    profile = funcspace._ShellProfile(f, x, radii, quadrature)
    assert len(profile.wdir) == m
    assert profile.table.tobytes() == ball_average_radii(f, x, radii, quadrature).tobytes()
    for r, pieces in ((1.02, 1), (1.7, 9)):
        del sizes[:]
        got = profile(r)
        assert sum(sizes) == funcspace._GAP_NODES * m * pieces
        assert got == _probe_reference(profile, radii, r)
        assert got == pytest.approx(ball_average(f, x, r, quadrature), abs=1e-12)


# ---------------------------------------------------------------------------
# 3D: the half-order rule below the switch


def _table_reference(f, x, radii, quadrature=DEFAULT_QUADRATURE, segments=None):
    """_ShellProfile's table on positive radii, from _annulus_reference:
    without segments, every shell on the quadrature's own rule."""
    n, vol = f.dimension, unit_ball_volume(f.dimension)
    first = _annulus_reference(f, x, np.zeros(1), np.ones(1), quadrature, radii[0], segments)[0]
    annuli = _annulus_reference(f, x, radii[:-1], radii[1:], quadrature, 1.0, segments)
    totals = first * radii[0] ** n + np.cumsum(annuli)
    return np.concatenate(([first / vol], totals / (vol * radii[1:] ** n)))


def _fixed_probe(f, x, radii, table, r):
    """A probe at r on the quadrature's own rule: table[k] at the largest
    radius g <= r, plus the annulus (g, r)."""
    k = int(np.searchsorted(radii, r, side="right")) - 1
    g, vol = float(radii[k]), unit_ball_volume(3)
    annulus = _annulus_reference(f, x, np.array([g]), np.array([r]), DEFAULT_QUADRATURE)[0]
    return float((table[k] * vol * g**3 + annulus) / (vol * r**3))


@st.composite
def _3d_cases(draw):
    """gauss of width 0.2-2, |a 3-5-piece max-affine| (what the radius
    search averages) or the distance to 3 points; x in [-2, 2]^3; 32
    radii from 1e-3, the floor of the radius search, to 8, and 4
    probes."""
    from tangentia.specials import ClosedSetModel, distance_function

    kind = draw(st.sampled_from(["gauss", "maxaffine", "dist"]))
    point = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
    if kind == "gauss":
        f = make_gauss(draw(st.floats(0.2, 2.0)), 3)
    elif kind == "maxaffine":
        k = draw(st.integers(3, 5))
        piece = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
        rows = np.array(draw(st.lists(piece, min_size=k, max_size=k)))
        f = absolute(make_maxaffine(rows[:, :3], rows[:, 3]))
    else:
        f = distance_function(ClosedSetModel.from_points(draw(st.lists(point, min_size=3, max_size=3))))
    radii = np.geomspace(1e-3, 8.0, 32)
    probes = draw(st.lists(st.floats(1e-3, 8.0), min_size=4, max_size=4))
    return kind, f, np.array(draw(point)), radii, probes


@settings(max_examples=15, deadline=None)
@given(_3d_cases())
def test_3d_switch_keeps_the_fixed_rule_values(case):
    # every table value and probe against the fixed 2,048-direction rule:
    # within 1e-12 on gauss; on the kinked functions, where the coarse
    # rules miss a kink until it covers about 8 degrees of a shell, within
    # 1e-12 plus the fixed rule's own worst error on the table (measured
    # against the 8,192-direction rule: about 1e-5 of the average, while
    # the coarse rules lost at most 2e-7); the radii start at the floor of
    # the radius search, so the tables run through the 128-direction rung
    kind, f, x, radii, probes = case
    profile = funcspace._ShellProfile(f, x, radii)
    fixed = _table_reference(f, x, radii)
    got = np.concatenate((profile.table, [profile(r) for r in probes]))
    want = np.concatenate((fixed, [_fixed_probe(f, x, radii, fixed, r) for r in probes]))
    own = 0.0
    if kind != "gauss":
        finer = _table_reference(f, x, radii, QuadratureConfig(radial_order=64))
        own = float(np.max(np.abs(fixed - finer)))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + own)


@pytest.mark.parametrize("delta", [0.002, 0.05, 1.0])
def test_3d_switch_lands_where_a_shell_crosses_the_kink(delta):
    # |x1| is affine on every shell about x short of the plane x1 = 0, so
    # the coarse rules agree there; the switch comes once a shell's cap
    # beyond the plane reaches a node (measured 1.010-1.016 delta)
    f = absolute(parse_function_spec("maxaffine[(1,0,0,0),(-1,0,0,0)]"))
    for x in ([delta, 0.0, 0.0], [-delta, 0.3, -0.2]):
        profile = funcspace._ShellProfile(f, np.array(x), np.geomspace(1e-3, 8.0, 512))
        assert delta <= profile.switch <= 1.05 * delta


def test_3d_grid_function_loses_less_than_the_fixed_rule_error():
    # a grid function whose one nonzero sample makes a small hat: the
    # shells first meet the hat in a small cap, which the coarse rules can
    # miss; against the 32,768-direction rule the fixed rule's own worst
    # error on the table is 8.2e-5 (of averages up to 0.0138), and the
    # coarse rules move the values by at most 1.5e-6, 1.8 % of it
    samples = np.zeros(9**3)
    samples[np.ravel_multi_index((6, 4, 4), (9, 9, 9))] = 1.0  # at (0.5, 0, 0)
    f = absolute(GridFunction((-1.0,) * 3, (1.0,) * 3, (9,) * 3, samples).as_function())
    x = np.zeros(3)
    radii = np.geomspace(0.2, 0.98, 24)
    profile = funcspace._ShellProfile(f, x, radii)
    assert 0.25 < profile.switch < 0.26  # where the shells reach the hat
    fixed = _table_reference(f, x, radii)
    own = np.max(np.abs(fixed - _table_reference(f, x, radii, QuadratureConfig(radial_order=128))))
    assert np.max(np.abs(profile.table - fixed)) <= 0.1 * own


def test_3d_audit_keeps_a_small_hat_on_a_smooth_background():
    # the one-hat grid function plus 0.01 gauss(2): the hat first meets
    # the shells in a small cap between the nodes of both the 128 and the
    # 32 directions, which agree there on the smooth background; the
    # audit of each piece's first node on the 512 directions ends the
    # first rung there (ratio 0.0028 of the fixed rule's own error; 0.123
    # without the audit, measured on a copy without it); the second rung
    # and the audited segment end at the same shell
    samples = np.zeros(9**3)
    samples[np.ravel_multi_index((6, 4, 4), (9, 9, 9))] = 1.0  # at (0.5, 0, 0)
    hat = absolute(GridFunction((-1.0,) * 3, (1.0,) * 3, (9,) * 3, samples).as_function())
    g = make_gauss(2.0, 3)
    f = DirectionalFunction(
        evaluator=lambda y: hat(y) + 0.01 * g(y),
        dimension=3,
        batch_evaluator=lambda p: hat.evaluate_many(p) + 0.01 * g.evaluate_many(p),
    )
    x = np.zeros(3)
    radii = np.geomspace(1e-3, 0.98, 128)
    profile = funcspace._ShellProfile(f, x, radii)
    # the first ball on the first rung's 128 directions, as every later
    # shell up to the hat
    assert profile.rules[0] is profile.rungs[0][0]
    assert profile.table[0] == _table_reference(f, x, radii[:1], segments=((), (8,)))[0]
    assert profile.bounds[0] < 0.26  # the first rung ends where the shells reach the hat
    fixed = _table_reference(f, x, radii)
    own = np.max(np.abs(fixed - _table_reference(f, x, radii, QuadratureConfig(radial_order=128))))
    assert np.max(np.abs(profile.table - fixed)) <= 0.1 * own


@pytest.mark.parametrize("order, m", [(5, 50), (8, 128), (16, 512)])
def test_3d_low_orders_keep_one_rule(order, m):
    # at radial_order 5 the half- and quarter-order rules are both the same
    # 16 directions, so a check would pass every shell: the profile keeps
    # the full rule; from order 8 on the two differ (32 and 16 directions),
    # and from order 16 on the rung below them, the quarter order checked
    # by the eighth (at order 8 both would be 16 directions); at order 16
    # the audited segment's 128 directions hold on gauss through the
    # table, so the full rule starts at its largest radius
    quadrature = QuadratureConfig(radial_order=order)
    f, sizes = _counting(make_gauss(0.5, 3))
    profile = funcspace._ShellProfile(f, np.full(3, 0.2), np.array([0.1, 1.0, 2.0]), quadrature)
    assert len(profile.wdir) == m
    rungs = {5: [], 8: [(32, 16)], 16: [(32, 16), (128, 32)]}[order]
    assert [(len(rule[1]), len(check[1])) for rule, check in profile.rungs] == rungs
    if not rungs:
        assert profile.switch == 0.0
        assert all(k % m == 0 for k in sizes)
    elif order == 8:
        assert 0.0 < profile.switch < 2.0
    else:
        assert profile.switch == 2.0 and profile.rules[-2] is profile.rungs[-1][0]


def test_3d_audited_segment_hands_on_to_the_full_rule():
    # gauss(0.5, 3) at |x| = 1.3 on the radius grid of maxop.maximal: the
    # 128/32 rung ends at 0.045, the 512/128 pair at 0.49, and the audited
    # segment sums on the same 512 directions, with one shell in 4 on the
    # 2,048, until an audit differs at 2.93; the full rule runs from there
    # to a tail at 6.11.  The table is the full rule's within 1e-14
    from tangentia import maxop

    f, x = make_gauss(0.5, 3), np.array([1.3, 0.0, 0.0])
    grid = np.geomspace(maxop._R_MIN_FLOOR, maxop._default_r_max(f, x), maxop._GRID_POINTS)
    profile = funcspace._ShellProfile(f, x, grid)
    assert [len(w) for _, w in profile.rules] == [128, 512, 512, 2048, 512, 2048]
    assert profile.rules[2] is profile.rungs[-1][0]
    assert 0.4 < profile.bounds[1] < 0.6 and 2.5 < profile.bounds[2] == profile.switch < 3.5
    fixed = _table_reference(f, x, grid)
    assert np.all(np.abs(profile.table - fixed) <= 1e-14 * np.abs(fixed))


@pytest.mark.parametrize("d", [1.0, 1.5, 2.0])
def test_3d_audit_hands_on_where_a_shell_crosses_the_kink(d, monkeypatch):
    # |x1| plus gauss(0.5, 3), about x at distance d from the plane x1 = 0:
    # on the gauss the 512/128 pair ends short of the plane (at 0.27-0.75
    # d), and the audited segment's 512 directions agree with the 2,048
    # until the shells cross it; an audit catches the kink by about 1.02 d
    # (measured 1.004-1.016 d), and no row of the segment is evaluated
    # past that audit: beyond it only the chunk's later audited shells
    # (at most 15) are summed on the 512 directions
    wedge, g = absolute(parse_function_spec("maxaffine[(1,0,0,0),(-1,0,0,0)]")), make_gauss(0.5, 3)
    f = DirectionalFunction(
        evaluator=lambda y: wedge(y) + g(y),
        dimension=3,
        batch_evaluator=lambda p: wedge.evaluate_many(p) + g.evaluate_many(p),
    )
    calls, values = [], funcspace._ShellProfile._values

    def record(self, radii, dirs_t):
        calls.append((np.array(radii), dirs_t.shape[1]))
        return values(self, radii, dirs_t)

    monkeypatch.setattr(funcspace._ShellProfile, "_values", record)
    for x in ([d, 0.0, 0.0], [-d, 0.3, -0.2]):
        del calls[:]
        profile = funcspace._ShellProfile(f, np.array(x), np.geomspace(1e-3, 8.0, 512))
        assert [len(w) for _, w in profile.rules] == [128, 512, 512, 2048]
        assert profile.bounds[1] < d <= profile.switch <= 1.03 * d
        beyond = sum(int(np.sum(radii > profile.switch)) for radii, m in calls if m == 512)
        assert beyond <= 15


def test_3d_switch_check_changes_no_bit():
    # the table, built while its bounds are placed (the switch, then a
    # tail from 8.26), is bitwise the table assembled from the finished
    # profile's annulus integrals, which reuse the bounds (a
    # matrix-vector product of fewer rows can change a sum's last bits,
    # and here it would)
    f = make_gauss(0.5, 3)
    x, radii = np.array([-1.18, 0.39, 1.28]), np.geomspace(1e-3, 20.0, 64)
    profile = funcspace._ShellProfile(f, x, radii)
    first = profile.annulus_integrals(np.zeros(1), np.ones(1), radii[0])[0]
    annuli = profile.annulus_integrals(radii[:-1], radii[1:])
    vol = unit_ball_volume(3)
    totals = first * radii[0] ** 3 + np.cumsum(annuli)
    table = np.concatenate(([first / vol], totals / (vol * radii[1:] ** 3)))
    assert table.tobytes() == profile.table.tobytes()
    assert profile.table.tobytes() == _table_reference(f, x, radii, segments=_segments(profile)).tobytes()


def _tails(profile):
    """The bounds where a profile's table enters a negligible tail from
    the full rule: it hands on to the half order, the rule of the last
    rung (a tail entered from the audited segment keeps that segment's
    rule, and is not found here)."""
    rules = profile.rules
    return [
        b for b, before, after in zip(profile.bounds, rules, rules[1:])
        if before[1] is profile.wdir and after is profile.rungs[-1][0]
    ]


def test_3d_tail_hands_back_to_the_checked_rules():
    # two hats: the shells about x leave the first at 0.75, where the
    # table enters its tail (0.99), and meet the second from 1.5 on, where
    # the tail hands its first shell above the threshold back to the
    # checked pair, which climbs to the audited segment at once, and that
    # to the full rule at 1.536 (ratio 0.026; a tail that
    # never hands back moves the table by 0.46 of the fixed rule's own
    # error; on the 128 directions, between whose nodes the second hat
    # lies, by 4.9 times)
    samples = np.zeros(17**3)
    for node in ((10, 8, 8), (1, 8, 8)):  # (0.5, 0, 0) and (-1.75, 0, 0)
        samples[np.ravel_multi_index(node, (17,) * 3)] = 1.0
    f = absolute(GridFunction((-2.0,) * 3, (2.0,) * 3, (17,) * 3, samples).as_function())
    x = np.zeros(3)
    radii = np.geomspace(0.2, 1.95, 48)
    profile = funcspace._ShellProfile(f, x, radii)
    (tail,) = _tails(profile)
    back = profile.bounds[profile.bounds.index(tail) + 1]
    assert 0.75 < tail < back < 1.55 and profile.rules[-1][1] is profile.wdir
    fixed = _table_reference(f, x, radii)
    own = np.max(np.abs(fixed - _table_reference(f, x, radii, QuadratureConfig(radial_order=128))))
    assert np.max(np.abs(profile.table - fixed)) <= 0.1 * own


def test_3d_tail_starts_far_out_on_the_maximal_grid():
    # |gauss(0.5, 3)| at |x| = 1.22 on the radius grid of maxop.maximal:
    # the shells beyond about 5.7 add less than 1e-12 of the largest and
    # are summed on the 512 directions alone; a probe there evaluates 512
    # directions a shell and is the annulus integral of its one gap
    from tangentia import maxop

    f, sizes = _counting(absolute(make_gauss(0.5, 3)))
    x = np.array([1.21, -0.09, -0.097])
    grid = np.geomspace(maxop._R_MIN_FLOOR, maxop._default_r_max(f, x), maxop._GRID_POINTS)
    profile = funcspace._ShellProfile(f, x, grid)
    (tail,) = _tails(profile)
    assert 4.0 < tail < 8.0 and profile.bounds[-1] == grid[-1]
    r = 9.9
    g = grid[np.searchsorted(grid, r) - 1]
    pieces = math.ceil((r - g) / (funcspace._MAX_PIECE * r))
    del sizes[:]
    got = profile(r)
    assert sum(sizes) == funcspace._GAP_NODES * 512 * pieces
    assert got == _probe_reference(profile, grid, r)


@pytest.mark.parametrize(
    "f, x",
    [
        (make_gauss(0.5), [1.21]),
        (make_gauss(0.5, 2), [1.21, -0.09]),
        (absolute(make_maxaffine([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [0.0, 0.0])), [0.05, 0.0, 0.0]),
    ],
    ids=["gauss-1d", "gauss-2d", "abs-x1"],
)
def test_tail_only_where_f_becomes_negligible(f, x):
    # 1D and 2D profiles keep their one rule; |x1| grows on every shell,
    # so its table climbs its two rungs and the audited segment once (all
    # at the shell where the kink comes in reach) and stays on the full
    # rule
    profile = funcspace._ShellProfile(f, np.array(x), np.geomspace(1e-3, 20.0, 512))
    assert not _tails(profile)
    assert len(profile.bounds) == 3 * (f.dimension == 3)
    assert profile.rules[-1][1] is profile.wdir


@pytest.mark.parametrize("value", [0, -3, 1.5])
@pytest.mark.parametrize("field", ["radial_order", "angular_order", "sphere_nodes_2d", "sphere_nodes_3d"])
def test_quadrature_config_refuses_orders_below_one_or_fractional(field, value):
    # 0 and -3 used to give a rule without a word, 1.5 numpy's errors
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= 1, got {value}$"):
        QuadratureConfig(**{field: value})


@pytest.mark.parametrize("n, r", [(1, 1e308), (2, 1e154), (3, 1e103)])
def test_radius_whose_ball_volume_overflows_is_refused(n, r):
    # omega_n r^n overflowed to inf, so such an average read 0.0 with a
    # RuntimeWarning; the largest radius that fits is still accepted
    f = make_gauss(1.0, n)
    x = np.zeros(n)
    limit = funcspace._radius_limit(n)
    assert math.isfinite(unit_ball_volume(n) * limit**n) and limit < r
    match = re.escape(f"radius {r:g} is too large: the volume of a ball in R^{n} overflows")
    with pytest.raises(ValueError, match=match):
        ball_average(f, x, r)
    with pytest.raises(ValueError, match=match):
        ball_average_radii(f, x, [0.0, 1.0, r])
    with pytest.raises(ValueError, match=match):
        funcspace._ShellProfile(f, x, np.array([1.0, r]))
    out = ball_average_radii(f, x, [1.0, limit])
    assert 0.0 < out[1] < out[0]


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, 7.45e-155, 1e-160, 1e-200])
def test_gauss_width_needs_a_finite_inverse_square(s):
    # 1e-160 gave NaN at 0 and 1e-200 a ZeroDivisionError, as 1/s^2 overflows
    with pytest.raises(ValueError, match=f"gauss width must be > 0 with a finite 1/s\\^2, got {s}"):
        make_gauss(s)
    if s > 0:
        with pytest.raises(ValueError, match="gauss width"):
            parse_function_spec(f"gauss({s})")
    assert make_gauss(7.46e-155)([0.0]) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauss_batch_matches_row_sums_bitwise(n):
    s = 0.37
    inv = 1.0 / (s * s)
    pts = np.random.default_rng(n).normal(scale=3.0, size=(10_000, n))
    batch = make_gauss(s, n).batch_evaluator
    for p in (pts, np.ascontiguousarray(pts.T).T):  # C-ordered, coordinate-major
        assert np.all(batch(p) == np.exp(-0.5 * inv * np.sum(p * p, axis=1)))


@pytest.mark.parametrize("s", [0.5, 1e100, 3e152])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauss_is_silent_where_the_squared_norm_overflows(n, s):
    # beyond about 1.34e154, outside every zero radius, |y|^2 overflows to
    # inf and exp(-inf) gives the right 0.0; numpy warned in the scalar
    # kernel's matmul and the batch kernel's square (errors in this suite)
    f = make_gauss(s, n)
    far = np.full(n, 1e200)
    assert f(far) == 0.0 and f(-far) == 0.0
    x = np.full(n, 0.3 * s)
    out = f.evaluate_many(np.array([far, x, -far]))
    assert out[0] == out[2] == 0.0 and out[1] == f.evaluate_many(x[None, :])[0] > 0.0


@pytest.mark.parametrize("s", [3.5e152, 1e154, 1e300, math.inf])
def test_gauss_width_too_wide_is_refused(s):
    # above about 3.4e152, |x|^2 overflows inside the zero radius, where f
    # is not yet 0.0; above 1.3e154 s^2 itself overflows and f is NaN far out
    with pytest.raises(ValueError, match=re.escape(f"gauss width {s} is too wide")):
        make_gauss(s)
    assert math.isfinite(make_gauss(3.4e152, 3).zero_outside ** 2)


# ---------------------------------------------------------------------------
# zero_outside: the radius beyond which f is exactly 0.0


def test_zero_radius_declared_by_gauss_and_tent_only():
    assert make_gauss(0.5, 3).zero_outside == math.sqrt(1500.0) * 0.5
    assert funcspace.make_tent().zero_outside == 1.0
    for spec in ("abs", "maxaffine[(1,0),(-1,0)]", "dist[(0,0)]", "infconv(abs,1)"):
        assert parse_function_spec(spec).zero_outside is None
    assert GridFunction((0.0,), (1.0,), (2,), np.zeros(2)).as_function().zero_outside is None
    f = make_gauss(0.5, 2)
    assert absolute(f).zero_outside == f.zero_outside
    assert replace(f, label="g").zero_outside == f.zero_outside


@settings(max_examples=200)
@given(
    st.sampled_from([1, 2, 3]),
    st.floats(-150.0, 150.0),
    st.floats(1.0, 1e6),
    st.integers(0, 2**32 - 1),
)
def test_gauss_is_exactly_zero_beyond_its_zero_radius(n, log_s, t, seed):
    f = make_gauss(10.0**log_s, n)
    u = np.random.default_rng(seed).normal(size=n)
    y = u / np.linalg.norm(u) * (t * f.zero_outside)
    assume(math.hypot(*y) >= f.zero_outside)
    with np.errstate(over="ignore"):  # an overflowing |y|^2 gives exp(-inf) = 0
        assert f.evaluator(y) == 0.0
        assert f.batch_evaluator(y[None, :])[0] == 0.0


@given(st.floats(1.0, 1e300), st.booleans())
def test_tent_is_exactly_zero_beyond_its_zero_radius(t, negative):
    f = funcspace.make_tent()
    y = np.array([-t if negative else t])
    assert f.evaluator(y) == 0.0
    assert f.batch_evaluator(y[None, :])[0] == 0.0


# (f, x): x inside and outside B(0, R); gauss(0.5) has R = 19.36
_ZERO_CASES = [
    (make_gauss(0.5), [0.3]),
    (make_gauss(0.5), [25.0]),
    (make_gauss(0.5, 2), [0.7, -0.4]),
    (make_gauss(0.5, 2), [15.0, -14.0]),
    (make_gauss(0.5, 3), [1.3, 0.2, -0.1]),
    (make_gauss(0.5, 3), [20.0, 5.0, 3.0]),
    (funcspace.make_tent(), [0.3]),
    (funcspace.make_tent(), [2.5]),
]
_ZERO_IDS = ["gauss-1d-in", "gauss-1d-out", "gauss-2d-in", "gauss-2d-out",
             "gauss-3d-in", "gauss-3d-out", "tent-in", "tent-out"]


@pytest.mark.parametrize("f, x", _ZERO_CASES, ids=_ZERO_IDS)
def test_zero_radius_leaves_averages_and_probes_bitwise(f, x):
    # the shells off B(0, R) are skipped, yet every average and every probe
    # of the radius search is bitwise that of f without its zero radius
    x = np.array(x)
    R, d = f.zero_outside, float(np.linalg.norm(x))
    g, sizes = _counting(absolute(f))
    h, all_sizes = _counting(absolute(replace(f, zero_outside=None)))
    rng = np.random.default_rng(0)
    for radii in (np.geomspace(1e-3, 5.0 * (d + R), 512), np.array([0.0, 0.5 * R, d + R, 3.0 * (d + R)])):
        probe, reference = funcspace._ShellProfile(g, x, radii), funcspace._ShellProfile(h, x, radii)
        assert probe.table.tobytes() == reference.table.tobytes()
        for r in rng.uniform(radii[0], 1.2 * radii[-1], 60):
            assert probe(r) == reference(r)
    assert sum(sizes) < sum(all_sizes)


@pytest.mark.parametrize(
    "f, x, near",
    [
        (funcspace.make_tent(), [2.5], 1.4),
        (make_gauss(0.5), [25.0], 5.6),
        (make_gauss(0.5, 2), [-20.0, 3.0], 0.8),
        (make_gauss(0.5, 3), [20.0, 5.0, 3.0], 1.4),
    ],
    ids=["tent", "gauss-1d", "gauss-2d", "gauss-3d"],
)
def test_zero_radius_skips_every_shell_short_of_the_ball(f, x, near):
    # every ball about x up to radius `near` < |x| - R misses B(0, R): no
    # point is evaluated and every average is 0.0, as without R
    x = np.array(x)
    assert near < np.linalg.norm(x) - f.zero_outside
    g, sizes = _counting(f)
    radii = np.geomspace(1e-3, near, 64)
    profile = funcspace._ShellProfile(g, x, radii)
    assert profile.table.tobytes() == ball_average_radii(replace(f, zero_outside=None), x, radii).tobytes()
    assert np.all(profile.table == 0.0)
    assert [profile(r) for r in np.linspace(2e-3, near, 7)] == [0.0] * 7
    assert sizes == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_radius_skips_every_annulus_beyond_the_ball(n):
    # radii from just beyond |x| + R: only the first ball, which reaches
    # from x across B(0, R), is evaluated, and the averages are bitwise
    f = make_gauss(0.5, n)
    x = np.full(n, 0.2)
    radii = np.geomspace(f.zero_outside + 0.5, 60.0, 64)
    g, sizes = _counting(f)
    out = ball_average_radii(g, x, radii)
    assert out.tobytes() == ball_average_radii(replace(f, zero_outside=None), x, radii).tobytes()
    first = list(sizes)
    del sizes[:]
    assert ball_average(g, x, radii[0]) == out[0]
    assert sizes == first


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
    profile = funcspace._ShellProfile(f, x, radii)
    out = profile.table
    for k, r in enumerate(radii):
        # the refinement's extension returns the tabulated value itself
        assert profile(float(r)) == out[k]
        assert abs(out[k] - ball_average(f, x, r)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_profile_extension_between_radii(n):
    f = make_gauss(0.5, n)
    x = np.array([1.0, 0.3, 0.0][:n])
    radii = np.geomspace(0.01, 4.0, 64)
    profile = funcspace._ShellProfile(f, x, radii)
    for r in (0.0123, 0.77, 1.3, 3.99):
        assert profile(r) == pytest.approx(ball_average(f, x, r), abs=1e-12)
    with pytest.raises(ValueError, match="below"):
        profile(0.005)


def _linear_integral(f, breaks, u, v, absolute_value):
    """Integral over [u, v] of f, or of |f|, for f linear between breaks:
    the trapezoid rule on each stretch, and on a stretch where f changes
    sign, the two triangles of |f|."""
    t = np.unique([u, v] + [b for b in breaks if u < b < v])
    y = np.array([f([ti]) for ti in t])
    y0, y1, dt = y[:-1], y[1:], np.diff(t)
    if not absolute_value:
        return float(np.sum(0.5 * dt * (y0 + y1)))
    a0, a1 = np.abs(y0), np.abs(y1)
    same = y0 * y1 >= 0.0
    cross = 0.5 * (y0 * y0 + y1 * y1) / np.where(same, 1.0, a0 + a1)
    return float(np.sum(dt * np.where(same, 0.5 * (a0 + a1), cross)))


@st.composite
def _piecewise_linear_cases(draw):
    """A 1D max-affine, distance or grid function, the points where it
    bends, a centre and ascending radii, some just either side of a
    point where a shell meets a bend."""
    from tangentia.specials import ClosedSetModel, distance_function

    kind = draw(st.sampled_from(["maxaffine", "dist", "grid"]))
    if kind == "maxaffine":
        k = draw(st.integers(2, 4))
        a = draw(st.lists(st.integers(-12, 12), min_size=k, max_size=k))
        a = np.array(a) / 4.0
        c = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
        f = make_maxaffine(a[:, None], c)
        i, j = np.triu_indices(k, 1)
        i, j = i[a[i] != a[j]], j[a[i] != a[j]]
        breaks = list((c[j] - c[i]) / (a[i] - a[j]))
    elif kind == "dist":
        pts = sorted(set(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))))
        f = distance_function(ClosedSetModel.from_points([[p] for p in pts]))
        breaks = pts + [0.5 * (p + q) for p, q in zip(pts, pts[1:])]
    else:
        m = draw(st.integers(2, 12))
        samples = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        g = GridFunction((-3.0,), (3.0,), (m,), samples)
        f, breaks = g.as_function(), list(g.axes()[0])
    x = draw(st.floats(-1.0, 1.0))
    radii = set(_ascending_radii(draw, False)[:4])
    for b in breaks:
        d = abs(x - b)
        if 1e-3 < d < 1.9 and draw(st.booleans()):
            radii |= {d * (1.0 - 1e-9), d * (1.0 + 1e-9)}
    radii = np.array(sorted(r for r in radii if r <= 2.0))
    return f, breaks, x, radii


@settings(max_examples=60, deadline=None)
@given(_piecewise_linear_cases())
def test_shell_profile_is_exact_on_piecewise_linear_functions(case):
    # the pieces are cut where a shell meets a bend, so every average, at
    # the first radius and between radii too, is exact up to rounding
    f, breaks, x, radii = case
    between = 0.5 * (radii[:-1] + radii[1:])
    between = np.concatenate((between, [abs(x - b) for b in breaks]))
    between = between[(between > radii[0]) & (between < radii[-1])]
    for g, absolute_value in ((f, False), (absolute(f), True)):
        profile = funcspace._ShellProfile(g, np.array([x]), radii)
        got = list(profile.table) + [profile(r) for r in between]
        for avg, r in zip(got, list(radii) + list(between)):
            ref = _linear_integral(f, breaks, x - r, x + r, absolute_value) / (2.0 * r)
            assert abs(avg - ref) <= 1e-12 * (1.0 + abs(ref))


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
        lambda: GridFunction(tuple(lo), (1.0, 1.0), (3, 3), np.zeros(9)),
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


def test_grid_construction_lays_out_no_nodes():
    # the box check laid out all 129^3 nodes first: a 98 MiB peak for
    # 16.4 MiB of samples
    samples = np.zeros(129**3)
    tracemalloc.start()
    try:
        GridFunction((0.0,) * 3, (1.0,) * 3, (129,) * 3, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * samples.nbytes


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluators_refuse_non_finite_values(bad):
    # the one finiteness gate: both evaluators, with or without a batch
    # evaluator, name the first point that gives a non-finite value
    def ev(y):
        return bad if y[0] > 0.5 else float(y[0])

    plain = DirectionalFunction(evaluator=ev, dimension=1)
    batched = replace(plain, batch_evaluator=lambda pts: np.array([ev(p) for p in pts]))
    pts = np.array([[0.0], [0.75], [1.0]])
    for f in (plain, batched):
        assert f([0.5]) == 0.5
        with pytest.raises(NumericDomainError) as err:
            f([0.75])
        assert err.value.point == (0.75,)
        with pytest.raises(NumericDomainError) as err:
            f.evaluate_many(pts)
        assert err.value.point == (0.75,)
        assert err.value.value == bad or math.isnan(bad)
        with pytest.raises(NumericDomainError):
            sphere_average_derivative(f, [0.3], 0.25, [1.0])


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
