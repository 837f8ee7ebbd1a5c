import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from tangentia import nonsmooth
from tangentia.errors import LadderDivergenceError
from tangentia.funcspace import DirectionalFunction, make_maxaffine, parse_function_spec
from tangentia.nonsmooth import (
    difference_quotient,
    directional_derivative,
    directional_derivative_detail,
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
    d = directional_derivative_detail(bare, [0.5], [1.0])
    assert not d.from_oracle
    assert d.value == pytest.approx(-1.0, abs=1e-8)


def test_directional_derivative_oracle_records_numeric():
    tent = parse_function_spec("tent")
    d = directional_derivative_detail(tent, [0.5], [1.0])
    assert d.from_oracle
    assert d.value == -1.0
    assert d.numeric == pytest.approx(-1.0, abs=1e-6)


def test_directional_derivative_oracle_non_finite_point_rejected():
    # the oracle would answer at nan; the point is checked before it is asked
    tent = parse_function_spec("tent")
    with pytest.raises(ValueError, match="finite"):
        directional_derivative_detail(tent, [math.nan], [1.0])


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
    with pytest.raises(LadderDivergenceError):
        directional_derivative(f, [0.0], [1.0])


def test_quotient_ladder_shape_and_values():
    f = abs1d()
    lad = np.array([0.4, 0.2, 0.1])
    q = quotient_ladder(f, [0.0], [1.0], lad)
    assert np.allclose(q, [1.0, 1.0, 1.0])


def test_zero_direction_rejected():
    f = abs1d()
    with pytest.raises(ValueError, match="nonzero"):
        quotient_ladder(f, [0.5], [0.0])
    with pytest.raises(ValueError, match="nonzero"):
        directional_derivative_detail(f, [0.5], [0.0])


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


def test_gamma_monotone_in_tol():
    f = abs_x1_2d()
    x = [0.0, 0.3]
    degrees = [gamma(f, x, tol=t).degree for t in (1e-4, 1e-3, 1e-2)]
    assert degrees == sorted(degrees)


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


def test_scan_csv_format(tmp_path):
    f = abs_x1_2d()
    flags = singular_scan(f, ([-1, -1], [1, 1]), 16, annotate_gamma=False)
    path = tmp_path / "scan.csv"
    nonsmooth.scan_to_csv(flags, path, 2)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,tau,gamma,sf_flag"
    assert len(lines) == len(flags) + 1


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
