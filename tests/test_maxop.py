import dataclasses
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import fminbound, minimize_scalar

import tangentia
from tangentia import funcspace, maxop, verify
from tangentia.errors import MaximalBlowupError, NumericDomainError
from tangentia.funcspace import DirectionalFunction, ball_average, parse_function_spec
from tangentia.maxop import (
    check_translation_bound,
    maximal,
    maximal_directional_derivative,
    maximal_field,
)
from tangentia.nonsmooth import tau
from tangentia.semilinear import full_space

SQRT7 = math.sqrt(7.0)
MF2 = (3.0 - SQRT7) / 2.0


def tent():
    return parse_function_spec("tent")


# ---------------------------------------------------------------------------
# maximal values and radii


def test_constant_function_flat_radii():
    f = DirectionalFunction(
        evaluator=lambda x: 1.0,
        dimension=1,
        batch_evaluator=lambda p: np.ones(p.shape[0]),
        support=(np.array([-1.0]), np.array([1.0])),
    )
    v, rset = maximal(f, [0.4])
    assert v == pytest.approx(1.0, abs=1e-12)
    assert 0.0 in rset.radii
    assert math.inf in rset.radii


def test_tent_at_origin_radius_zero():
    v, rset = maximal(tent(), [0.0])
    assert v == pytest.approx(1.0, abs=1e-8)
    assert rset.radii == (0.0,)


def test_tent_at_two_value_and_radius():
    v, rset = maximal(tent(), [2.0])
    assert v == pytest.approx(MF2, abs=1e-8)
    fin = rset.finite()
    assert len(fin) == 1
    assert fin[0] == pytest.approx(SQRT7, abs=1e-4)


def test_finite_radii_reproduce_value():
    from tangentia.funcspace import absolute, ball_average

    f = tent()
    v, rset = maximal(f, [1.7])
    for r in rset.finite():
        assert ball_average(absolute(f), [1.7], r) == pytest.approx(v, abs=1e-8)


def test_restricted_tent_at_origin():
    v, rset = maximal(tent(), [0.0], lam=1.0)
    assert v == pytest.approx(0.5, abs=1e-8)
    fin = rset.finite()
    assert len(fin) == 1
    assert fin[0] == pytest.approx(1.0, abs=1e-4)


def test_monotone_in_lambda():
    f = tent()
    for x in (0.0, 0.7, 2.0):
        vals = [maximal(f, [x], lam=lam)[0] for lam in (0.0, 0.5, 1.0, 2.0)]
        for a, b in zip(vals, vals[1:]):
            assert a >= b - 1e-10


def test_operator_sees_absolute_value():
    f = tent()
    # -f keeps the tent's kinks, where |-f| bends
    neg = dataclasses.replace(
        f,
        evaluator=lambda x: -f.evaluator(x),
        batch_evaluator=lambda p: -f.batch_evaluator(p),
        derivative=None,
    )
    for x in (0.0, 1.3, 2.0):
        assert maximal(neg, [x])[0] == pytest.approx(maximal(f, [x])[0], abs=1e-9)


def tent_primitive(t):
    a = np.minimum(np.abs(t), 1.0)
    return np.copysign(a - 0.5 * a * a, t)


def tent_average(x, r):
    return (tent_primitive(x + r) - tent_primitive(x - r)) / (2.0 * r)


@pytest.mark.parametrize("x", [-1.1670830239421992, 1.1670830239421992, 0.25, 2.0])
def test_tent_maximal_exact_at_fixed_points(x):
    # +-1.167...: an adaptive 1D integral overestimated an average there by
    # 1.8e-6
    assert maximal(tent(), [x])[0] == pytest.approx(verify.tent_maximal(x), abs=1e-12)


def test_tent_maximal_exact_at_seeded_points():
    xs = np.random.default_rng(0).uniform(-3.0, 3.0, 40)
    worst = max(abs(maximal(tent(), [x])[0] - verify.tent_maximal(x)) for x in xs)
    assert worst <= 1e-10


def test_verify_tent_oracle_matches_exact():
    # the closed form that `tangentia verify` and these tests check M tent
    # against tops a scan of the tent's exact averages over 200,001 radii
    # (up to the primitive's cancellation at the smallest, 1e-3), by no
    # more than the scan's spacing allows.  At 2 the true value is
    # 0.17712434446770470..., and the float expression (3 - sqrt 7) / 2
    # rounds 2 ulp below it
    xs = np.random.default_rng(1).uniform(-3.0, 3.0, 100)
    radii = np.geomspace(1e-3, 10.0, 200_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = np.array([verify.tent_maximal(float(x)) for x in xs])
        at_two = verify.tent_maximal(2.0)
        near_kink = verify.tent_maximal(1e-12)
    scan = np.array(
        [max(1.0 - min(abs(x), 1.0), float(np.max(tent_average(x, radii)))) for x in xs]
    )
    assert np.all(oracle >= scan - 1e-13)
    assert np.all(oracle - scan <= 1e-9)
    assert at_two == pytest.approx((3.0 - math.sqrt(7.0)) / 2.0, abs=1e-15)
    assert near_kink == pytest.approx(1.0 - 1e-12, abs=1e-15)


def test_undeclared_kinks_are_treated_as_smooth():
    # the 1D contract: a function that declares no kinks is integrated as
    # smooth, so 4-node pieces that straddle the tent's kinks lose accuracy
    smooth = dataclasses.replace(tent(), kinks=())
    xs = np.random.default_rng(1).uniform(-3.0, 3.0, 20)
    declared = max(abs(maximal(tent(), [x])[0] - verify.tent_maximal(x)) for x in xs)
    undeclared = max(abs(maximal(smooth, [x])[0] - verify.tent_maximal(x)) for x in xs)
    assert declared <= 1e-10
    assert 1e-8 < undeclared <= 1e-5


def test_radii_continuity_near_two():
    # best radii at x = 2 +- 1e-3 stay within 1e-2 of sqrt(7)
    f = tent()
    for x in (2.0 - 1e-3, 2.0 + 1e-3):
        _, rset = maximal(f, [x])
        fin = rset.finite()
        assert len(fin) == 1
        assert abs(fin[0] - SQRT7) < 1e-2


def test_blowup_guard():
    # averages past the overflow guard signal an infinite maximal function
    f = DirectionalFunction(
        evaluator=lambda x: 1e13 / (1.0 + float(x[0]) ** 2),
        dimension=1,
        batch_evaluator=lambda p: 1e13 / (1.0 + p[:, 0] ** 2),
        support=(np.array([-1.0]), np.array([1.0])),
    )
    with pytest.raises(MaximalBlowupError, match=r"at x=\[0\.0\]: "):
        maximal(f, [0.0])


def test_lambda_negative_rejected():
    with pytest.raises(ValueError):
        maximal(tent(), [0.0], lam=-1.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_lambda_non_finite_rejected(lam):
    with pytest.raises(ValueError, match="lambda must be finite"):
        maximal(tent(), [0.0], lam=lam)


@pytest.mark.parametrize("r_max", [math.nan, math.inf])
def test_r_max_non_finite_rejected(r_max):
    # inf made geomspace warn and scipy refuse the bounds; nan blamed f
    with pytest.raises(ValueError, match="r_max must be finite"):
        maximal(tent(), [0.0], r_max=r_max)
    with pytest.raises(ValueError, match="r_max must be finite"):
        maximal_field(tent(), ([-1.0], [1.0]), 3, r_max=r_max)


@pytest.mark.parametrize("spec, x", [("abs", [1e307]), ("abs", [1.5e307]), ("gauss(1.0,2)", [1e308, -1e308])])
def test_infinite_default_r_max_is_refused_by_name(spec, x):
    # np.linalg.norm overflowed in a dot and the refusal blamed an r_max
    # the caller never gave; warnings are errors in this suite
    with pytest.raises(ValueError, match=r"default r_max .* is infinite.*--r-max"):
        maximal(parse_function_spec(spec), x)


@pytest.mark.parametrize("s, n", [(1e110, 3), (1e152, 3), (3e152, 2)])
def test_r_max_whose_ball_volume_overflows_is_refused_by_name(s, n):
    # the 3D calls returned f(x) = 0.8737 with grid_best nan, and the 2D one
    # a tail average of 0.0 where the true one is about 6.7e-5
    f = parse_function_spec(f"gauss({s},{n})")
    x = np.full(n, 0.03 * s)
    limit = maxop._radius_limit(n)
    message = rf"default r_max \S+ at x=.* is too large: the volume of a ball in R\^{n} overflows.*--r-max"
    with pytest.raises(ValueError, match=message):
        maximal(f, x)
    with pytest.raises(ValueError, match=message):
        maximal_field(f, (np.zeros(n), x), 2)
    with pytest.raises(ValueError, match=re.escape(f"r_max {2.0 * limit:g} at x=")):
        maximal(f, x, r_max=2.0 * limit)
    value, rset = maximal(f, x, r_max=0.5 * limit)
    assert 0.0 < value <= 1.0 and all(math.isfinite(v) for v in rset.trace.values())


@pytest.mark.parametrize("lam, r_max, lower", [(0.0, 0.0005, "0.001"), (2.0, 1.5, "2"), (0.5, 0.5, "0.5")])
def test_r_max_below_the_search_range_names_both_ends(lam, r_max, lower):
    message = f"r_max {r_max:g} must exceed the lower end of the search range, max(lambda, 0.001) = {lower}"
    with pytest.raises(ValueError, match=re.escape(message)):
        maximal(tent(), [0.0], lam=lam, r_max=r_max)


def test_r_max_one_ulp_above_lambda_gives_the_average_at_lambda():
    # the log grid repeats radii on so short a range; its zero-width gaps
    # add nothing, where the grid's radii check used to refuse the call
    value, rset = maximal(tent(), [0.3], lam=0.5, r_max=math.nextafter(0.5, 1.0))
    assert value == pytest.approx(0.66, abs=1e-15) and rset.radii == (0.5,)


def test_default_r_max_survives_an_overflowing_sum_of_squares():
    # |x|^2 overflows, |x| does not: with and without a support
    x = np.array([1e200, -1e200, 0.0])
    unsupported = DirectionalFunction(evaluator=lambda y: 0.0, dimension=3)
    assert maxop._default_r_max(unsupported, x) == pytest.approx(50.0 * math.sqrt(2.0) * 1e200, rel=1e-15)
    gauss = parse_function_spec("gauss(0.5,3)")
    assert maxop._default_r_max(gauss, x) == pytest.approx(10.0 * math.sqrt(2.0) * 1e200, rel=1e-15)
    # below the overflow the default keeps np.linalg.norm's bits
    f = parse_function_spec("gauss(0.5,3)")
    x = np.array([1.3, 0.07, -0.02])
    assert maxop._default_r_max(f, x) == 10.0 * (float(np.linalg.norm(np.full(3, 6.0))) + float(np.linalg.norm(x)) + 1.0)


@pytest.mark.parametrize(
    "spec, points",
    [
        ("gauss(0.5)", [[0.0], [0.3], [1.7], [25.0]]),
        ("gauss(0.5,2)", [[0.3, 0.2], [1.2, -0.4]]),
        ("gauss(0.5,3)", [[0.3, 0.2, 0.1], [1.2, -0.4, 0.2]]),
        ("tent", [[0.0], [0.3], [0.999], [1.5], [3.0]]),
    ],
)
def test_zero_radius_leaves_maximal_bitwise(spec, points):
    # values, radii and trace of maximal with the declared zero radius are
    # bit for bit those of the same f without it
    f = parse_function_spec(spec)
    plain = dataclasses.replace(f, zero_outside=None)
    for x in points:
        assert pickle.dumps(maximal(f, x)) == pickle.dumps(maximal(plain, x))


def test_non_finite_value_at_the_centre_is_refused():
    # f is NaN only at x, which no ball average evaluates: the r = 0
    # candidate |f(x)| made maximal return NaN
    x = 0.3

    def batch(pts):
        return np.where(pts[:, 0] == x, math.nan, np.exp(-pts[:, 0] ** 2))

    f = DirectionalFunction(
        evaluator=lambda y: float(batch(y[None, :])[0]), dimension=1, batch_evaluator=batch
    )
    with pytest.raises(NumericDomainError) as err:
        maximal(f, [x])
    assert err.value.point == (x,)
    assert math.isnan(err.value.value)
    # with lambda > 0 the centre is no candidate
    assert math.isfinite(maximal(f, [x], lam=0.5)[0])


def test_discontinuous_rejected():
    f = DirectionalFunction(evaluator=lambda x: 0.0, dimension=1, continuous=False)
    with pytest.raises(ValueError):
        maximal(f, [0.0])


# ---------------------------------------------------------------------------
# nD maximal values and radii, against a radial-reduction oracle


def gauss_average(rho, r, s, n):
    """Average of gauss(s) over B(x, r) for |x| = rho, in 2D or 3D.

    The ball is cut into spheres |y| = t about the origin: those with
    t <= r - rho lie inside it; for |r - rho| < t < r + rho the part
    inside is a cap of area pi t (r^2 - (t - rho)^2) / rho in 3D and an
    arc of length 2 t arccos((t^2 + rho^2 - r^2) / (2 t rho)) in 2D.
    """

    def g(t):
        return math.exp(-0.5 * t * t / (s * s))

    if n == 3:
        def whole(t):
            return 4.0 * math.pi * t * t * g(t)

        def part(t):
            return math.pi * t * (r * r - (t - rho) ** 2) / rho * g(t)

        volume = 4.0 / 3.0 * math.pi * r**3
    else:
        def whole(t):
            return 2.0 * math.pi * t * g(t)

        def part(t):
            c = (t * t + rho * rho - r * r) / (2.0 * t * rho)
            return 2.0 * t * math.acos(min(1.0, max(-1.0, c))) * g(t)

        volume = math.pi * r * r
    opts = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
    total = quad(whole, 0.0, max(r - rho, 0.0), **opts)[0]
    if rho > 0.0:
        total += quad(part, abs(r - rho), r + rho, **opts)[0]
    return total / volume


@pytest.mark.parametrize("r", [6.0, 9.33])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_average_matches_radial_oracle_at_large_radii(n, r):
    # one ball 30-47 times wider than gauss(0.2)'s length scale, off its
    # centre: the shell profile from 0 keeps 1e-5 relative
    x = np.zeros(n)
    x[0] = 2.2
    got = ball_average(parse_function_spec(f"gauss(0.2,{n})"), x, r)
    assert got == pytest.approx(gauss_average(2.2, r, 0.2, n), rel=1e-5, abs=0.0)


def gauss_maximal(rho, s, n, lam=0.0):
    """(value, best radius) of M_lam gauss(s) at |x| = rho; radius 0 is
    gauss(rho) itself."""
    grid = np.geomspace(max(lam, 1e-3), 20.0, 240)
    vals = [gauss_average(rho, r, s, n) for r in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = minimize_scalar(
        lambda r: -gauss_average(rho, r, s, n),
        bounds=(a, b),
        method="bounded",
        options={"xatol": 1e-12},
    )
    cands = [(vals[i], grid[i]), (-res.fun, res.x)]
    if lam == 0.0:
        cands.append((math.exp(-0.5 * rho * rho / (s * s)), 0.0))
    return max(cands)


@pytest.mark.parametrize(
    "x, lam",
    [
        ((0.3, 0.1), 0.0),
        ((1.2, 0.4), 0.0),
        ((0.3, 0.1, 0.0), 0.0),
        ((1.3, 0.05, 0.02), 0.0),
        ((0.3, 0.1), 0.8),
    ],
    ids=["2d-radius-0", "2d-finite", "3d-radius-0", "3d-finite", "2d-lambda"],
)
def test_gauss_nd_matches_radial_oracle(x, lam):
    n = len(x)
    v, rset = maximal(parse_function_spec(f"gauss(0.5,{n})"), x, lam=lam)
    ref, r_ref = gauss_maximal(float(np.linalg.norm(x)), 0.5, n, lam)
    assert v == pytest.approx(ref, abs=1e-9)
    assert len(rset.radii) == 1
    assert rset.radii[0] == pytest.approx(r_ref, abs=1e-4)
    if lam > 0:
        assert rset.radii[0] == lam  # the average falls off past lambda


@pytest.mark.parametrize(
    "spec, x",
    [
        ("maxaffine[(1,0,-1),(-1,0,-1)]", (0.3, 0.0)),
        ("distpoly[(0,0),(1,0),(1,1),(0,1)]", (0.5, 0.4)),
    ],
)
def test_unbounded_2d_keeps_inf_marker(spec, x):
    # |f| grows without bound, so the tail wins and is reported as inf
    _, rset = maximal(parse_function_spec(spec), x)
    assert rset.radii[-1] == math.inf
    assert len(rset.finite()) == 1


@pytest.mark.parametrize(
    "spec, box", [("abs", (-2.0, 2.0)), ("dist[0,1.5]", (-2.0, 3.0))]
)
def test_unbounded_1d_field_keeps_inf_marker(spec, box):
    # |f| grows without bound, so the tail wins at every point
    _, _, radii = maximal_field(parse_function_spec(spec), box, 21)
    assert all(rs.radii[-1] == math.inf for rs in radii)


def _recorded(fn):
    """fn, and the hex of every argument it is called with, in order."""
    seen = []

    def rec(t):
        seen.append(float(t).hex())
        return fn(float(t))

    return rec, seen


def _tent_profile():
    # the objective maxop's radius search minimizes: minus the averages of
    # |tent| about 0.7, probed on the 512-radius grid's profile
    f = funcspace.absolute(tent())
    profile = funcspace._ShellProfile(f, np.array([0.7]), np.geomspace(1e-3, 45.0, 512))
    return lambda r: -profile(r)


_BRENT_OBJECTIVES = {
    "parabola": lambda c, d: lambda t: (t - c) ** 2,
    "two-bumps": lambda c, d: lambda t: -(
        math.exp(-((t - c) ** 2) / 0.3) + 0.8 * math.exp(-((t - d) ** 2) / 0.05)
    ),
    "plateau": lambda c, d: lambda t: 1.5,
    # terraces: ties between a new value and an old one, where the two
    # methods must keep the same points
    "terraces": lambda c, d: lambda t: math.floor(64.0 * (t - c) ** 2) / 64.0,
    "tent-profile": lambda c, d: _tent_profile(),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_BRENT_OBJECTIVES)),
    st.floats(0.0, 6.0),
    st.floats(0.0, 6.0),
    st.floats(1e-3, 4.0),
    st.floats(1e-9, 4.0),
    st.floats(-12.0, -2.0),
)
@example("tent-profile", 0.0, 0.0, 0.299, 0.01, -10.0)
@example("plateau", 0.0, 0.0, 1.0, 2.0, -12.0)
# a tie with the second-best point (fu == f(nfc)) that changes later steps
@example("terraces", 4.838945376192573, 0.0, 3.0365824697424926, 3.147268823026511, -11.010201079748134)
def test_bounded_min_probes_as_scipy_does(name, c, d, a, width, log_tol):
    # the in-house Brent probes the points scipy's bounded method and
    # fminbound probe, in order, and returns the same argmin and minimum
    b, xatol = a + width, 10.0**log_tol
    make = _BRENT_OBJECTIVES[name]
    rec, ours = _recorded(make(c, d))
    x, fx = funcspace._bounded_min(rec, a, b, xatol)
    rec, theirs = _recorded(make(c, d))
    res = minimize_scalar(rec, bounds=(a, b), method="bounded", options={"xatol": xatol})
    assert ours == theirs
    assert (x.hex(), float(fx).hex()) == (float(res.x).hex(), float(res.fun).hex())
    rec, theirs = _recorded(make(c, d))
    xf, fval, _, _ = fminbound(rec, a, b, xtol=xatol, full_output=True, disp=0)
    assert ours == theirs
    assert (x.hex(), float(fx).hex()) == (float(xf).hex(), float(fval).hex())


def test_1d_fields_do_not_import_scipy_integrate():
    # every 1D ball average is a shell profile: no adaptive quadrature; the
    # radius search refines in-house, so no field imports scipy.optimize,
    # and neither does the 1D infconv's seed refinement
    code = (
        "import sys\n"
        "from tangentia.funcspace import parse_function_spec as p\n"
        "from tangentia.maxop import maximal_field\n"
        "loaded = lambda: sorted({'scipy.optimize', 'scipy.integrate'} & set(sys.modules))\n"
        "maximal_field(p('tent'), (-2.0, 2.0), 5)\n"
        "maximal_field(p('dist[0,1.5]'), (-2.0, 3.0), 5)\n"
        "maximal_field(p('gauss(0.5)'), (-2.0, 2.0), 5)\n"
        "maximal_field(p('gauss(0.5,3)'), ((0.3, 0.0, 0.0), (1.3, 0.1, 0.1)), (2, 1, 1))\n"
        "print(loaded())\n"
        "maximal_field(p('infconv(tent,0.5)'), (-1.0, 1.0), 2, r_max=2.0)\n"
        "print(loaded())\n"
    )
    src = str(Path(tangentia.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.split("\n") == ["[]", "[]", ""]
    assert done.stderr == ""


def test_constant_3d_flat_radii():
    f = DirectionalFunction(
        evaluator=lambda x: 2.5,
        dimension=3,
        batch_evaluator=lambda p: np.full(p.shape[0], 2.5),
        support=(np.full(3, -1.0), np.full(3, 1.0)),
    )
    v, rset = maximal(f, [0.2, -0.1, 0.4])
    assert v == 2.5
    assert rset.radii == (0.0, math.inf)
    assert rset.trace == {"flat": True}


def test_blowup_guard_3d():
    f = DirectionalFunction(
        evaluator=lambda x: 1e13 / (1.0 + float(x @ x)),
        dimension=3,
        batch_evaluator=lambda p: 1e13 / (1.0 + np.sum(p * p, axis=1)),
        support=(np.full(3, -1.0), np.full(3, 1.0)),
    )
    with pytest.raises(MaximalBlowupError):
        maximal(f, [0.0, 0.0, 0.0])


_PROPERTY_SPECS = (
    "tent",
    "maxaffine[(1,-1),(-1,-1),(0,-0.5)]",
    "gauss(0.5,2)",
    "gauss(0.5,3)",
    "maxaffine[(1,0,0),(-1,0,0),(0,1,0)]",
)


@st.composite
def _spec_and_point(draw):
    spec = draw(st.sampled_from(_PROPERTY_SPECS))
    n = parse_function_spec(spec).dimension
    return spec, draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))


@settings(max_examples=12, deadline=None)
@given(_spec_and_point())
def test_maximal_dominates_abs_f(case):
    spec, x = case
    f = parse_function_spec(spec)
    assert maximal(f, x)[0] >= abs(f(x)) * (1.0 - 1e-12)


@settings(max_examples=12, deadline=None)
@given(_spec_and_point(), st.floats(0.0, 1.5), st.floats(0.0, 1.5))
# the smallest positive lambda: a first radius of 5e-324 keeps its average
@example(("tent", [0.3]), 5e-324, 0.0)
@example(("tent", [0.0]), 5e-324, 1e-4)
@example(("maxaffine[(1,-1),(-1,-1),(0,-0.5)]", [1.0]), 5e-324, 0.5)
@example(("gauss(0.5,2)", [0.3, 0.1]), 5e-324, 1e-4)
def test_maximal_nonincreasing_in_lambda(case, lam_a, lam_b):
    # the sup over [lam, r_max] can only fall as lam grows
    spec, x = case
    f = parse_function_spec(spec)
    lo, hi = sorted((lam_a, lam_b))
    assert maximal(f, x, hi)[0] <= maximal(f, x, lo)[0] * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# envelope derivatives


def test_envelope_derivative_at_two():
    d = maximal_directional_derivative(tent(), [2.0], [1.0])
    assert d == pytest.approx((SQRT7 - 3.0) / (2.0 * SQRT7), abs=1e-5)


def test_envelope_restricted_symmetric_point():
    for th in (1.0, -1.0):
        d = maximal_directional_derivative(tent(), [0.0], [th], lam=1.0)
        assert abs(d) < 1e-4


def test_envelope_constant_zero():
    f = DirectionalFunction(
        evaluator=lambda x: 2.0,
        dimension=1,
        derivative=lambda x, th: 0.0,
        batch_evaluator=lambda p: np.full(p.shape[0], 2.0),
        support=(np.array([-1.0]), np.array([1.0])),
    )
    d = maximal_directional_derivative(f, [0.3], [1.0])
    assert abs(d) < 1e-10


def test_envelope_refuses_at_kink_when_lambda_zero():
    with pytest.raises(ValueError):
        maximal_directional_derivative(tent(), [1.0], [1.0])


@pytest.mark.parametrize(
    "spec, x", [("tent", [1.0]), ("maxaffine[(1,0,0),(-1,0,0)]", [0.0, 0.3])]
)
def test_envelope_refusal_names_tau_value(spec, x):
    # the gate fits tau only at its last rung; the residual it reports is
    # the full ladder's value
    f = parse_function_spec(spec)
    n = f.dimension
    t = tau(f, x, full_space(n), max(8, 2 * n)).value
    theta = np.eye(n)[0]
    with pytest.raises(ValueError) as err:
        maximal_directional_derivative(f, x, theta)
    assert f"differentiable at {x}; residual {t:.3e} >= " in str(err.value)


def test_envelope_zero_direction_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        maximal_directional_derivative(tent(), [2.0], [0.0])


# ---------------------------------------------------------------------------
# translation bound and Lipschitz audit


def test_translation_bound_linear_zero_lhs():
    a = np.array([2.0])
    f = DirectionalFunction(evaluator=lambda x: float(a @ x), dimension=1)
    rep = check_translation_bound(f, [0.3], [0.1], 0.5, a, u_sup=0.0)
    assert rep.passed
    assert rep.lhs < 1e-10


def test_translation_bound_square_exact():
    f = DirectionalFunction(evaluator=lambda x: float(x[0]) ** 2, dimension=1)
    h, r = 0.1, 0.5
    rep = check_translation_bound(f, [0.0], [h], r, [0.0], u_sup=r + h)
    assert rep.lhs == pytest.approx(h * h, abs=1e-8)
    assert rep.passed


def test_translation_bound_tent_smooth_piece():
    f = tent()
    rep = check_translation_bound(f, [0.5], [0.01], 0.1, [-1.0], u_sup=0.0)
    assert rep.passed
    assert rep.lhs < 1e-10


def test_translation_bound_violation_flagged():
    f = DirectionalFunction(evaluator=lambda x: float(x[0]) ** 2, dimension=1)
    rep = check_translation_bound(f, [0.0], [0.1], 0.5, [0.0], u_sup=0.0)
    assert not rep.passed
    assert rep.ratio == math.inf


# ---------------------------------------------------------------------------
# fields


@pytest.mark.parametrize("threads", [2, 0, -3])
def test_maximal_field_refuses_threads_other_than_1(threads):
    # the points run in order; 0 and -3 ran serially without a word
    with pytest.raises(ValueError, match=f"threads must be 1: the field points run in order, got {threads}"):
        maximal_field(tent(), ([0.5], [2.5]), 7, threads=threads)


def test_maximal_field_axis_of_one_node_may_have_no_width():
    # a one-node axis is its lower corner, so hi = lo names it exactly;
    # a flat axis with more nodes, or a reversed one, is still refused
    f = parse_function_spec("gauss(0.5,2)")
    pts, vals, _ = maximal_field(f, ([1.2, 0.0], [1.2, 0.1]), (1, 2))
    assert pts.tolist() == [[1.2, 0.0], [1.2, 0.1]]
    assert vals.tolist() == [maximal(f, p)[0] for p in pts]
    for box, resolution in [(([1.2, 0.0], [1.2, 0.1]), 2), (([1.2, 0.1], [1.2, 0.0]), (1, 2))]:
        with pytest.raises(ValueError, match="must exceed"):
            maximal_field(f, box, resolution)


@pytest.mark.parametrize("resolution", [0, (3, 0)])
def test_maximal_field_empty_grid_rejected(resolution):
    f = parse_function_spec("gauss(0.5,2)")
    with pytest.raises(ValueError, match="1 grid point"):
        maximal_field(f, ([-1.0, -1.0], [1.0, 1.0]), resolution)
