import math

import numpy as np
import pytest

from tangentia import maxop
from tangentia.errors import MaximalBlowupError
from tangentia.funcspace import DirectionalFunction, parse_function_spec
from tangentia.maxop import (
    check_translation_bound,
    maximal,
    maximal_directional_derivative,
    maximal_field,
)

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
    neg = DirectionalFunction(
        evaluator=lambda x: -f.evaluator(x),
        dimension=1,
        batch_evaluator=lambda p: -f.batch_evaluator(p),
        support=f.support,
    )
    for x in (0.0, 1.3, 2.0):
        assert maximal(neg, [x])[0] == pytest.approx(maximal(f, [x])[0], abs=1e-9)


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
    with pytest.raises(MaximalBlowupError):
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


def test_discontinuous_rejected():
    f = DirectionalFunction(evaluator=lambda x: 0.0, dimension=1, continuous=False)
    with pytest.raises(ValueError):
        maximal(f, [0.0])


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


def test_maximal_field_csv(tmp_path):
    f = tent()
    pts, vals, radii = maximal_field(f, ([-1.0], [1.0]), 5)
    assert pts.shape == (5, 1)
    path = tmp_path / "field.csv"
    maxop.field_to_csv(pts, vals, radii, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("x1,Mf,r_best_count")
    assert len(lines) == 6


def test_maximal_field_threaded_matches_serial():
    f = tent()
    _, v1, _ = maximal_field(f, ([0.5], [2.5]), 7, threads=1)
    _, v2, _ = maximal_field(f, ([0.5], [2.5]), 7, threads=4)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize("resolution", [0, (3, 0)])
def test_maximal_field_empty_grid_rejected(resolution):
    f = parse_function_spec("gauss(0.5,2)")
    with pytest.raises(ValueError, match="1 grid point"):
        maximal_field(f, ([-1.0, -1.0], [1.0, 1.0]), resolution)
