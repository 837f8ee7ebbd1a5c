import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tangentia import nonsmooth
from tangentia.errors import LadderDivergenceError, NumericDomainError
from tangentia.funcspace import (
    DirectionalFunction,
    GridFunction,
    make_maxaffine,
    parse_function_spec,
)
from tangentia.nonsmooth import (
    GammaBudget,
    difference_quotient,
    directional_derivative,
    gamma,
    minimax_fit,
    quotient_ladder,
    singular_scan,
    tau,
)
from tangentia.semilinear import (
    full_space,
    halfspace,
    linear_subspace,
    ray_space,
    sample_unit_vectors,
)


def abs1d():
    return parse_function_spec("abs")


def abs_x1_2d():
    return parse_function_spec("maxaffine[(1,0,0),(-1,0,0)]")


# ---------------------------------------------------------------------------
# minimax fit


def test_minimax_fit_exact_data():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 3))
    c = np.array([1.0, -2.0, 0.5])
    coeffs, res = minimax_fit(A, A @ c)
    assert res < 1e-10
    assert np.allclose(coeffs, c, atol=1e-8)


def test_minimax_fit_symmetric_outliers():
    # y = x on [-1,1] plus symmetric corruption: best uniform fit of
    # max(|1-a|,|1+a|) over slopes is a = 0, residual 1
    A = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 1.0])  # |x| at +-1 divided by radius
    coeffs, res = minimax_fit(A, y)
    assert abs(coeffs[0]) < 1e-8
    assert res == pytest.approx(1.0, abs=1e-9)


def test_minimax_fit_beats_least_squares_on_abs_cos():
    # |cos phi| on 5 equally spaced directions: by symmetry the best fit
    # is a*cos phi with 1 - a = cos(36 deg) (1 + a), residual 2/sqrt(5);
    # least squares is off by 0.15, so only the LP reaches it
    phi = 2.0 * np.pi * np.arange(5) / 5
    A = np.column_stack([np.cos(phi), np.sin(phi)])
    y = np.abs(np.cos(phi))
    coeffs, res = minimax_fit(A, y)
    assert res == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)
    assert np.allclose(coeffs, [1.0 - 2.0 / math.sqrt(5.0), 0.0], atol=1e-12)
    c_ls, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert np.max(np.abs(y - A @ c_ls)) > res + 0.1


def _chebyshev_dual(A, y):
    """max sum_i u_i y_i over sum |u_i| <= 1 with A^T u = 0 (u = p - q).

    The LP dual of min_c max_i |y_i - A_i . c|, so equal to its optimum.
    Feasible u only see the part of y orthogonal to the columns of A;
    the LP is posed on that part scaled to unit max, where the solver's
    absolute tolerances are small against the optimum.
    """
    m, d = A.shape
    Q, _ = np.linalg.qr(A)
    y = y - Q @ (Q.T @ y)
    scale = np.max(np.abs(y))
    if scale == 0.0:
        return 0.0
    lp = linprog(
        np.concatenate([-y, y]) / scale,
        A_eq=np.vstack([np.hstack([A.T, -A.T]), np.ones((1, 2 * m))]),
        b_eq=np.concatenate([np.zeros(d), [1.0]]),
        bounds=[(0.0, None)] * (2 * m),
    )
    assert lp.status == 0
    return -lp.fun * scale


@settings(max_examples=60)
@given(
    d=st.integers(1, 3),
    extra=st.integers(1, 37),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-6, 1.0]),
)
def test_minimax_fit_matches_dual_lp(d, extra, seed, noise):
    # exact, nearly exact and random data
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d + extra, d))
    y = A @ rng.standard_normal(d) + noise * rng.standard_normal(d + extra)
    coeffs, res = minimax_fit(A, y)
    assert res == np.max(np.abs(y - A @ coeffs))
    scale = 1.0 + np.max(np.abs(y))
    assert res == pytest.approx(_chebyshev_dual(A, y), abs=1e-9 * scale)


@settings(max_examples=80)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
)
def test_minimax_residual_bounded_below_by_least_squares_rms(d, m, seed, noise):
    # the bound gamma rejects candidates on without a minimax fit
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d))
    y = A @ rng.standard_normal(d) + noise * rng.standard_normal(m)
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    rms = math.sqrt(float(np.mean((y - A @ c) ** 2)))
    assert minimax_fit(A, y)[1] >= rms * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# quotients and derivatives


def test_difference_quotient_examples():
    f = abs1d()
    assert difference_quotient(f, [0.0], [0.5]) == pytest.approx(1.0)
    tent = parse_function_spec("tent")
    assert difference_quotient(tent, [0.9], [0.2]) == pytest.approx(-0.5)


def test_difference_quotient_linear():
    a = np.array([2.0, -1.0])
    f = DirectionalFunction(evaluator=lambda x: float(a @ x), dimension=2)
    h = np.array([0.3, 0.4])
    assert difference_quotient(f, [1.0, 1.0], h) == pytest.approx(
        float(a @ h) / np.linalg.norm(h), abs=1e-12
    )


def test_difference_quotient_zero_h_rejected():
    with pytest.raises(ValueError):
        difference_quotient(abs1d(), [0.0], [0.0])


def test_directional_derivative_abs_at_zero():
    f = abs1d()
    assert directional_derivative(f, [0.0], [1.0]) == pytest.approx(1.0)
    assert directional_derivative(f, [0.0], [-1.0]) == pytest.approx(1.0)


def test_directional_derivative_tent_support_edge():
    tent = parse_function_spec("tent")
    assert directional_derivative(tent, [1.0], [1.0]) == pytest.approx(0.0)
    assert directional_derivative(tent, [1.0], [-1.0]) == pytest.approx(1.0)


def test_directional_derivative_numeric_without_oracle():
    # strip the oracle; the Richardson ladder must still find the slope
    tent = parse_function_spec("tent")
    bare = DirectionalFunction(evaluator=tent.evaluator, dimension=1)
    assert directional_derivative(bare, [0.5], [1.0]) == pytest.approx(-1.0, abs=1e-6)


def test_directional_derivative_returns_oracle():
    # with an oracle no quotient is taken: f is never evaluated
    tent = parse_function_spec("tent")
    calls = []

    def counted(x):
        calls.append(1)
        return tent.evaluator(x)

    f = DirectionalFunction(evaluator=counted, dimension=1, derivative=tent.derivative)
    assert directional_derivative(f, [0.5], [1.0]) == -1.0
    assert calls == []


def test_directional_derivative_oracle_non_finite_point_rejected():
    # the oracle would answer at nan; the point is checked before it is asked
    tent = parse_function_spec("tent")
    with pytest.raises(ValueError, match="finite"):
        directional_derivative(tent, [math.nan], [1.0])


def test_directional_derivative_of_pointwise_max():
    # max of C1 members: the derivative is the largest theta . grad f_k
    # over the active members, written out here against the generic ladder
    members = (
        lambda x: math.sin(x[0]) + x[1],
        lambda x: x[0] * x[1],
        lambda x: -0.5 * x[0] + 0.25,
    )
    gradients = (
        lambda x: np.array([math.cos(x[0]), 1.0]),
        lambda x: np.array([x[1], x[0]]),
        lambda x: np.array([-0.5, 0.0]),
    )
    f = DirectionalFunction(
        evaluator=lambda x: max(float(fk(x)) for fk in members), dimension=2
    )
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        th = rng.standard_normal(2)
        th /= np.linalg.norm(th)
        vals = np.array([fk(x) for fk in members])
        top = float(np.max(vals))
        active = np.flatnonzero(vals >= top - 1e-9 * (1.0 + abs(top)))
        want = max(float(gradients[k](x) @ th) for k in active)
        try:
            got = directional_derivative(f, x, th)
        except LadderDivergenceError:
            # probes essentially on an active-set crossing make the
            # extrapolated ladder refuse; that refusal is correct behaviour
            continue
        assert abs(got - want) < 1e-4
        checked += 1
    assert checked >= 190


def test_ladder_divergence_detected():
    f = DirectionalFunction(
        evaluator=lambda x: math.sqrt(abs(float(x[0]))), dimension=1
    )
    # the message names the point as plain floats
    with pytest.raises(LadderDivergenceError, match=r"settle at \[0\.0\] "):
        directional_derivative(f, [0.0], [1.0])


def test_quotient_ladder_shape_and_values():
    f = abs1d()
    lad = np.array([0.4, 0.2, 0.1])
    q = quotient_ladder(f, [0.0], [1.0], lad)
    assert np.allclose(q, [1.0, 1.0, 1.0])


_BAD_RUNGS = "ladder radii must be finite and > 0, at least one"


@pytest.mark.parametrize(
    "ladder", [[0.0], [], [0.1, -0.05], [math.inf], [0.1, math.nan]],
    ids=["zero", "empty", "negative", "inf", "nan"],
)
def test_ladder_not_finite_positive_refused(ladder):
    # [0] gave [nan] from quotient_ladder and scipy's "Invalid input for
    # linprog" from tau, [] an IndexError, and a negative rung probed -W
    f, x = abs_x1_2d(), [0.0, 0.3]
    with pytest.raises(ValueError, match=_BAD_RUNGS):
        quotient_ladder(f, x, [1.0, 0.0], ladder)
    with pytest.raises(ValueError, match=_BAD_RUNGS):
        tau(f, x, full_space(2), ladder=ladder)


@pytest.mark.parametrize("radius", [0.0, -0.05, math.inf, math.nan])
def test_gamma_budget_radius_not_finite_positive_refused(radius):
    # GammaBudget(radius=0) made gamma die in scipy's linprog
    with pytest.raises(ValueError, match=_BAD_RUNGS):
        GammaBudget(radius=radius)


@pytest.mark.parametrize(
    "name, value",
    [("candidates_per_dim", 0), ("candidates_per_dim", -1), ("b_per_candidate", 0)],
)
def test_gamma_budget_counts_below_one_refused(name, value):
    # no candidates read degree 0 where the default budget reads 1, and no
    # vectors per candidate died in semilinear's bare "need N >= 1"
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        GammaBudget(**{name: value})


def test_zero_direction_rejected():
    f = abs1d()
    with pytest.raises(ValueError, match="nonzero"):
        quotient_ladder(f, [0.5], [0.0])
    with pytest.raises(ValueError, match="nonzero"):
        directional_derivative(f, [0.5], [0.0])


# ---------------------------------------------------------------------------
# tau


def test_tau_linear_is_zero():
    a = np.array([1.0, -2.0])
    f = DirectionalFunction(
        evaluator=lambda x: float(a @ x),
        dimension=2,
        batch_evaluator=lambda p: p @ a,
    )
    for W in (full_space(2), linear_subspace(2, [[1.0, 1.0]]), ray_space([0.0, 1.0])):
        assert tau(f, [0.3, -0.7], W).value < 1e-9


def test_tau_abs_full_line():
    # slope-grid oracle: min over a of max(|1-a|,|1+a|) = 1
    est = tau(abs1d(), [0.0], full_space(1))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.direction_count == 32


def test_tau_abs_x1_in_2d_matches_slope_grid_oracle():
    f = abs_x1_2d()
    est = tau(f, [0.0, 0.0], full_space(2), n_dir=32, seed=0)
    # oracle on the same sampled directions: the best uniform affine fit of
    # |cos phi| by a cos phi + b sin phi is a linear program in (a, b, t)
    from scipy.optimize import linprog

    from tangentia.semilinear import sample_unit_vectors

    dirs = sample_unit_vectors(full_space(2), 32, seed=0)
    vals = np.abs(dirs[:, 0])
    A = np.vstack([np.column_stack([dirs, -np.ones(32)]),
                   np.column_stack([-dirs, -np.ones(32)])])
    rhs = np.concatenate([vals, -vals])
    lp = linprog(c=[0.0, 0.0, 1.0], A_ub=A, b_ub=rhs,
                 bounds=[(None, None), (None, None), (0.0, None)])
    assert lp.status == 0
    assert est.value == pytest.approx(float(lp.x[2]), abs=1e-6)
    assert abs(est.value - 1.0) < 5e-3  # sampled sup of the true value 1


def test_tau_euclidean_norm_2d():
    f = DirectionalFunction(
        evaluator=lambda x: float(np.linalg.norm(x)),
        dimension=2,
        batch_evaluator=lambda p: np.linalg.norm(p, axis=1),
    )
    est = tau(f, [0.0, 0.0], full_space(2))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_tau_nonnegative_and_ladder_reported():
    est = tau(abs1d(), [0.1], full_space(1))
    assert est.value >= 0.0
    assert len(est.ladder) == 12
    radii = [r for r, _ in est.ladder]
    assert radii == sorted(radii, reverse=True)


def test_tau_scale_invariance():
    f = abs_x1_2d()
    for c in (0.5, 2.0, -3.0):
        cf = DirectionalFunction(
            evaluator=lambda x, c=c: c * f.evaluator(x),
            dimension=2,
            batch_evaluator=lambda p, c=c: c * f.batch_evaluator(p),
        )
        t1 = tau(f, [0.0, 0.0], full_space(2)).value
        tc = tau(cf, [0.0, 0.0], full_space(2)).value
        assert tc == pytest.approx(abs(c) * t1, abs=1e-8)


def test_tau_zero_along_kink_line():
    # |x1| restricted to the y-axis is identically 0: tau vanishes there
    f = abs_x1_2d()
    W = linear_subspace(2, [[0.0, 1.0]])
    assert tau(f, [0.0, 0.5], W).value < 1e-10


def test_tau_requires_enough_directions():
    with pytest.raises(ValueError):
        tau(abs_x1_2d(), [0.0, 0.0], full_space(2), n_dir=2)


def test_tau_trivial_subspace_rejected():
    from tangentia.semilinear import semilinear

    with pytest.raises(ValueError):
        tau(abs1d(), [0.0], semilinear(1))



def test_tau_coefficients_are_the_fitted_map():
    # on a linear f the fit is exact: D matches the gradient on span(W)
    # and is zero off it
    g = np.array([1.5, -0.5])
    f = DirectionalFunction(evaluator=lambda x: float(g @ x), dimension=2)
    e1, e2 = np.eye(2)
    line = tau(f, [0.3, 0.1], linear_subspace(2, [e1]))
    assert np.allclose(line.coefficients, [1.5, 0.0], atol=1e-12)
    half = tau(f, [0.3, 0.1], halfspace(linear_subspace(2, [e2]), e1))
    assert np.allclose(half.coefficients, g, atol=1e-12)

@pytest.mark.parametrize("x", [[math.nan, 0.0], [0.0, math.inf]])
def test_non_finite_point_rejected(x):
    f = abs_x1_2d()
    with pytest.raises(ValueError, match="finite"):
        tau(f, x, full_space(2))
    with pytest.raises(ValueError, match="finite"):
        gamma(f, x)


def _bad_past_half(bad):
    """y1 + 2 y2 where y1 < 0.5, bad beyond, and the list of every point
    either evaluator was given, in evaluation order."""
    seen = []

    def batch(pts):
        seen.extend(np.array(pts).tolist())
        return np.where(pts[:, 0] < 0.5, pts[:, 0] + 2.0 * pts[:, 1], bad)

    f = DirectionalFunction(
        evaluator=lambda y: float(batch(y[None, :])[0]), dimension=2, batch_evaluator=batch
    )
    return f, seen


@pytest.mark.parametrize(
    "call",
    [
        lambda f, x: tau(f, x, full_space(2)),
        lambda f, x: gamma(f, x),
        lambda f, x: singular_scan(f, ([0.0, 0.0], [1.0, 1.0]), 5),
        lambda f, x: quotient_ladder(f, x, [1.0, 0.0]),
        lambda f, x: directional_derivative(f, x, [1.0, 0.0]),
        lambda f, x: nonsmooth.kink_normals(f, x),
        lambda f, x: GridFunction.from_function(f, [0.0, 0.0], [1.0, 1.0], 5),
    ],
    ids=["tau", "gamma", "singular_scan", "quotient_ladder", "directional_derivative",
         "kink_normals", "grid_from_function"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_is_refused_at_first_point(call, bad):
    # tau leaked scipy's linprog refusal of a nan b_ub, singular_scan
    # returned [] and the quotient ladder nan; every one reaches x1 >= 0.5
    # from x = (0.4999, 0), gamma's radius and kink_normals' probes too
    f, seen = _bad_past_half(bad)
    with pytest.raises(NumericDomainError) as err:
        call(f, np.array([0.4999, 0.0]))
    first = next(p for p in seen if p[0] >= 0.5)
    assert err.value.point == tuple(first)
    assert err.value.value == bad or (math.isnan(bad) and math.isnan(err.value.value))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_directional_derivative_non_finite_oracle_refused(bad):
    f = DirectionalFunction(
        evaluator=lambda y: 0.0, dimension=1, derivative=lambda y, theta: bad
    )
    with pytest.raises(NumericDomainError) as err:
        directional_derivative(f, [0.25], [1.0])
    assert err.value.point == (0.25,)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
def test_tol_not_finite_positive_rejected(tol):
    f = abs1d()
    with pytest.raises(ValueError, match="tol must be finite"):
        gamma(f, [0.0], tol=tol)
    with pytest.raises(ValueError, match="tol must be finite"):
        singular_scan(f, ([-1.0], [1.0]), 5, tol=tol)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_full_at_smooth_point():
    tent = parse_function_spec("tent")
    est = gamma(tent, [0.5])
    assert est.degree == 1
    assert est.worst_residual < 1e-3


def test_gamma_abs_x1_on_axis_witness_is_y_axis():
    f = abs_x1_2d()
    est = gamma(f, [0.0, 0.3])
    assert est.degree == 1
    v = est.witness.basis[:, 0]
    angle = math.acos(min(1.0, abs(float(v @ np.array([0.0, 1.0])))))
    assert angle < 1e-2


def test_gamma_abs_x1_off_axis_full():
    f = abs_x1_2d()
    assert gamma(f, [0.4, -0.2]).degree == 2


def test_gamma_linfty_corner_zero():
    F = parse_function_spec("maxaffine[(1,0,0),(-1,0,0),(0,1,0),(0,-1,0)]")
    assert gamma(F, [0.0, 0.0]).degree == 0


def test_gamma_3d_line_from_kink_normal_cross_product():
    # three planes meet in the x3 axis: the structured k = 1 candidate,
    # the cross product of two kink normals, is e3 itself
    f = make_maxaffine([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], [0, 0, 0])
    est = gamma(f, [0.0, 0.0, 0.3])
    assert est.degree == 1
    assert est.witness.rays == ()
    assert np.allclose(np.abs(est.witness.basis[:, 0]), [0.0, 0.0, 1.0], rtol=0.0, atol=1e-12)
    assert est.worst_residual < 1e-12


def test_gamma_monotone_in_tol():
    f = abs_x1_2d()
    x = [0.0, 0.3]
    degrees = [gamma(f, x, tol=t).degree for t in (1e-4, 1e-3, 1e-2)]
    assert degrees == sorted(degrees)


@pytest.mark.parametrize("x, degree", [([0.0, 0.3], 1), ([0.4, -0.2], 2)])
def test_gamma_decided_by_last_rung(x, degree):
    f = abs_x1_2d()
    L = nonsmooth.DEFAULT_LADDER
    assert GammaBudget().radius == L[-1]
    est = gamma(f, x, budget=GammaBudget(radius=L[-1]))
    assert est.degree == degree
    if degree == 2:  # the full space: tau's value, bitwise
        assert est.worst_residual == tau(f, x, full_space(2), 24, L).value


def _counter(monkeypatch, owner, name):
    """Count the calls of owner.name."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _linprog_counter(monkeypatch):
    import scipy.optimize

    return _counter(monkeypatch, scipy.optimize, "linprog")


def test_gamma_fits_each_residual_once(monkeypatch):
    # a candidate that passes the least-squares bound goes on to its
    # minimax fit on the same least-squares solution
    residuals = _counter(monkeypatch, nonsmooth, "_tau_value")
    lstsq = _counter(monkeypatch, np.linalg, "lstsq")
    assert gamma(abs_x1_2d(), [0.0, 0.3]).degree == 1
    assert residuals
    assert len(lstsq) <= len(residuals)


def _misfit_data():
    """Data whose minimax fit needs the LP: least squares is not optimal."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((24, 2))
    return A, np.abs(rng.standard_normal(24))


def _rms(A, y):
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    return c, float(np.sqrt(np.mean(np.square(y - A @ c))))


def test_minimax_fit_tol_below_the_bound_is_the_full_fit(monkeypatch):
    # the bound is the least-squares RMS; tol = rms stays below it by the
    # _CERTIFY_TOL margin
    A, y = _misfit_data()
    c, res = minimax_fit(A, y)
    _, rms = _rms(A, y)
    calls = _linprog_counter(monkeypatch)
    for tol in (2.0 * res, rms):
        c_tol, res_tol = minimax_fit(A, y, tol)
        assert c_tol.tobytes() == c.tobytes() and res_tol == res
    assert len(calls) == 2  # each full fit solved its LP


def test_minimax_fit_tol_at_the_bound_returns_the_rms(monkeypatch):
    A, y = _misfit_data()
    c_ls, rms = _rms(A, y)
    calls = _linprog_counter(monkeypatch)
    for tol in (rms * (1.0 - 2.0 * nonsmooth._CERTIFY_TOL), 0.5 * rms):
        c, res = minimax_fit(A, y, tol)
        assert res == rms and c.tobytes() == c_ls.tobytes()
    assert calls == []
    assert minimax_fit(A, y)[1] > rms


def test_rejected_candidates_make_no_lp(monkeypatch):
    # criterion 05's first max-affine; pieces 1 and 2 meet at p, above piece 0
    rng = np.random.default_rng(0)
    a = rng.uniform(-2.0, 2.0, size=(3, 2))
    c = rng.uniform(-1.0, 1.0, size=3)
    f = make_maxaffine(a, c)
    da, dc = a[1] - a[2], c[1] - c[2]
    p = -dc * da / (da @ da)
    v = a @ p + c
    assert v[1] == pytest.approx(v[2], abs=1e-12) and v[0] < v[1] - 0.01

    calls = _linprog_counter(monkeypatch)
    assert gamma(f, p).degree == 1
    assert calls == []
    flags = singular_scan(f, ([-1, -1], [1, 1]), 16, annotate_gamma=True)
    assert flags
    assert len(calls) <= len(flags)


def _kink_normals_scalar(f, x, seed=0):
    """kink_normals with one scalar call of f per difference point."""
    n = f.dimension
    h = nonsmooth._FD_H
    eye = np.eye(n)
    grads = []
    for u in sample_unit_vectors(full_space(n), nonsmooth._N_PROBES, seed):
        p = np.asarray(x, dtype=float) + nonsmooth._PROBE_RADIUS * u
        grads.append(
            np.array([(f(p + h * eye[i]) - f(p - h * eye[i])) / (2.0 * h) for i in range(n)])
        )
    reps = []
    for g in grads:
        if all(np.linalg.norm(g - r) > nonsmooth._CLUSTER_TOL for r in reps):
            reps.append(g)
    normals = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            d = reps[i] - reps[j]
            if np.linalg.norm(d) > nonsmooth._CLUSTER_TOL:
                d = d / np.linalg.norm(d)
                if all(
                    min(np.linalg.norm(d - m), np.linalg.norm(d + m)) > 1e-6
                    for m in normals
                ):
                    normals.append(d)
    return normals


# a smooth f rounds differently in its scalar and batch evaluators (gauss:
# math.exp of x @ x against np.exp of a row sum), by about one ulp of f;
# over the difference step that is eps / _FD_H in a gradient, and two
# gauss gradient clusters may lie only _CLUSTER_TOL apart
_SMOOTH_NORMAL_TOL = np.finfo(float).eps / (nonsmooth._FD_H * nonsmooth._CLUSTER_TOL)


@pytest.mark.parametrize(
    "spec, x, count, tol",
    [
        ("maxaffine[(1,0,0),(-1,0,0),(0,1,0)]", (0.0, -0.3), 1, 1e-8),
        ("maxaffine[(1,0,0),(-1,0,0),(0,1,0)]", (0.0, 0.0), 3, 1e-8),
        ("maxaffine[(1,0,0,0),(0,1,0,0),(0,0,1,0)]", (0.2, 0.2, 0.2), 3, 1e-8),
        ("distpoly[(0,0),(1,0),(1,1),(0,1)]", (0.3, 0.3), 1, 1e-8),
        ("distpoly[(0,0),(1,0),(1,1),(0,1)]", (0.5, 0.5), 4, 1e-8),
        ("gauss(0.5,2)", (0.3, 0.1), 55, _SMOOTH_NORMAL_TOL),
        ("gauss(0.5,3)", (0.3, 0.1, -0.2), 120, _SMOOTH_NORMAL_TOL),
    ],
)
def test_kink_normals_match_scalar_probes(spec, x, count, tol):
    # the batched probes give the normals of one scalar call per point
    f = parse_function_spec(spec)
    got = nonsmooth.kink_normals(f, x)
    ref = _kink_normals_scalar(f, x)
    assert len(ref) == count
    assert len(got) == count
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= tol


# ---------------------------------------------------------------------------
# singular scan


def test_scan_linear_empty():
    a = np.array([1.0, 2.0])
    f = DirectionalFunction(
        evaluator=lambda x: float(a @ x),
        dimension=2,
        batch_evaluator=lambda p: p @ a,
    )
    assert singular_scan(f, ([-1, -1], [1, 1]), 16, annotate_gamma=False) == []


def test_scan_abs_x1_flags_near_axis():
    f = abs_x1_2d()
    # odd resolution places grid nodes on the kink line itself; an even
    # resolution straddles it at exactly half a cell, where the finest
    # ladder rung no longer crosses the kink
    res = 65
    flags = singular_scan(f, ([-1, -1], [1, 1]), res, annotate_gamma=False)
    assert flags
    cell = 2.0 / (res - 1)
    for p in flags:
        assert abs(p.point[0]) <= 0.5 * cell + 1e-12
        assert not p.sf_flag


def test_scan_annotates_gamma():
    f = abs_x1_2d()
    flags = singular_scan(f, ([-1, -1], [1, 1]), 17)
    assert flags
    assert all(p.gamma == 1 for p in flags)


def test_scan_maxaffine_arrangement_edges():
    # F = max(x, -x, y): flagged points lie on the pairwise-active loci
    F = parse_function_spec("maxaffine[(1,0,0),(-1,0,0),(0,1,0)]")
    res = 64
    cell = 2.0 / (res - 1)
    flags = singular_scan(F, ([-1, -1], [1, 1]), res, annotate_gamma=False)
    assert flags
    for p in flags:
        x, y = p.point
        # exact loci: {x = 0, y <= 0} union {y = |x|}
        d1 = abs(x) if y <= cell else math.inf
        d2 = abs(y - abs(x)) / math.sqrt(2.0)
        assert min(d1, d2) <= 0.5 * cell * math.sqrt(2.0) + 1e-9


def _seeded_maxaffine_3d():
    rng = np.random.default_rng(2)
    return make_maxaffine(rng.uniform(-2.0, 2.0, size=(4, 3)), rng.uniform(-1.0, 1.0, size=4))


@pytest.mark.parametrize(
    "f, box, res, n_dir",
    [
        (parse_function_spec("maxaffine[(1,0,0),(-1,0,0),(0,1,0)]"), ([-1, -1], [1, 1]), 33, 16),
        (_seeded_maxaffine_3d(), ([-1, -1, -1], [1, 1, 1]), 5, 48),
    ],
    ids=["readme-2d", "seeded-3d"],
)
def test_scan_shares_an_exact_degree_search(f, box, res, n_dir, monkeypatch):
    # each flag's degree is a fresh gamma's at the scan's budget, and no
    # subspace is sampled twice with the same size and seed in one scan
    sampled = []
    real = nonsmooth.sample_unit_vectors

    def counted(W, N, seed=0):
        sampled.append((W.basis.tobytes(), tuple(r.tobytes() for r in W.rays), N, seed))
        return real(W, N, seed)

    monkeypatch.setattr(nonsmooth, "sample_unit_vectors", counted)
    flags = singular_scan(f, box, res)
    assert len(sampled) == len(set(sampled))
    monkeypatch.undo()

    cell = 2.0 / (res - 1)
    budget = GammaBudget(8, 8, n_dir, 0.5 * cell)
    degrees = [gamma(f, p.point, 1e-3, budget).degree for p in flags]
    assert [p.gamma for p in flags] == degrees
    assert len(set(degrees)) > 1


def test_degree_search_samples_are_keyed_by_subspace_and_size():
    # a line, its halfspaces (same basis, one ray more), a ray and R^3, at
    # three sizes in mixed order: every answer is a fresh sample's, bitwise
    search = nonsmooth._DegreeSearch(_seeded_maxaffine_3d(), 1e-3, GammaBudget())
    line = linear_subspace(3, [[1.0, 2.0, 2.0]])
    spaces = [line, halfspace(line, [0.0, 1.0, 0.0]), halfspace(line, [0.0, 0.0, 1.0]),
              ray_space([0.0, 1.0, 0.0]), full_space(3)]
    for N in (16, 4, 48, 16):
        for W in spaces[::-1] + spaces:
            dirs, A = search.sample(W, N)
            fresh = sample_unit_vectors(W, N, 0)
            assert dirs.tobytes() == fresh.tobytes()
            assert A.tobytes() == (fresh @ W.span_basis()).tobytes()


# ---------------------------------------------------------------------------
# Lipschitz properties of the derivative (module-scale battery)


def test_theta_lipschitz_of_directional_derivative():
    rng = np.random.default_rng(9)
    a = rng.uniform(-2, 2, size=(3, 2))
    c = rng.uniform(-1, 1, size=3)
    F = make_maxaffine(a, c)
    K = F.lipschitz
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        t1 = rng.standard_normal(2)
        t1 /= np.linalg.norm(t1)
        t2 = rng.standard_normal(2)
        t2 /= np.linalg.norm(t2)
        d1 = directional_derivative(F, x, t1)
        d2 = directional_derivative(F, x, t2)
        assert abs(d1 - d2) <= K * np.linalg.norm(t1 - t2) + 1e-6
