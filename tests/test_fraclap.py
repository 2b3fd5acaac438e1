"""Float64 quadrature engine: oracles, invariances, and input validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharmonic as sh
from conftest import power_block_reference
from sharmonic import fraclap
from sharmonic.approximate import Target, _read_grid_csv
from sharmonic.blocks import combo_derivative
from sharmonic.cli import main
from sharmonic.errors import ConfigError, DomainError, EvaluationError
from sharmonic.fraclap import FracLapDetail, FracParams, QuadConfig


def gaussian(z):
    return np.exp(-np.asarray(z, dtype=float) ** 2)


# ---------------------------------------------------------------------------
# closed-form and high-precision oracles


def test_gaussian_half_order_closed_form():
    # [DERIVED] for s = 1/2 the integral int_0^inf 2(1 - e^(-y^2))/y^2 dy
    # equals 2 sqrt(pi) by parts; independent of any quadrature code
    want = 2.0 * math.sqrt(math.pi)
    got = sh.frac_laplacian(gaussian, 0.0, FracParams(0.5))
    assert got == pytest.approx(want, rel=1e-8)


def test_power_block_against_exact_reduction():
    # [DERIVED] mismatched power p != s has a nonzero exact value from the
    # arbitrary-precision reduction; the float64 engine must reproduce it
    t, p, s = 2.0, 0.8, 0.55

    def u(z):
        return np.maximum(np.asarray(z, dtype=float) + t, 0.0) ** p

    cfg = QuadConfig(tail_growth=p)
    for x in (0.0, 1.0):
        want = power_block_reference(t, p, s, x)
        got = sh.frac_laplacian(u, x, FracParams(s), cfg)
        assert got == pytest.approx(want, rel=1e-4)


def test_direct_and_pv_routes_agree():
    # the principal-value form uses different panels, Gauss order, and a
    # Richardson excision limit; agreement is a genuine cross-check
    for s in (0.3, 0.5, 0.7):
        for x in (0.0, 0.7):
            a = sh.frac_laplacian(gaussian, x, FracParams(s))
            b = sh.frac_laplacian_pv(gaussian, x, FracParams(s))
            assert b == pytest.approx(a, rel=1e-8, abs=1e-12)


# ---------------------------------------------------------------------------
# structural invariances of the operator


@pytest.mark.parametrize("s", [0.3, 0.6])
def test_scaling_law(s):
    # u_lam(z) = u(lam z) obeys  L[u_lam](x) = lam^(2s) L[u](lam x)
    lam = 2.0

    def scaled(z):
        return gaussian(lam * np.asarray(z, dtype=float))

    for x in (0.0, 0.35):
        lhs = sh.frac_laplacian(scaled, x, FracParams(s))
        rhs = lam ** (2 * s) * sh.frac_laplacian(gaussian, lam * x, FracParams(s))
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_translation_invariance():
    a = 0.4

    def shifted(z):
        return gaussian(np.asarray(z, dtype=float) - a)

    for s in (0.4, 0.7):
        lhs = sh.frac_laplacian(shifted, 0.3 + a, FracParams(s))
        rhs = sh.frac_laplacian(gaussian, 0.3, FracParams(s))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_sharmonic_blocks_are_annihilated():
    # subset of the full grid exercised in the acceptance suite
    for s in (0.25, 0.5, 0.75):
        for t in (1.0, 5.0):
            combo = sh.SHCombo(s, (sh.SHBlock(t, 1.0, 1.0),))
            for x in (-0.5 * t, 0.0, 2.0):
                got = sh.frac_laplacian(combo, x, FracParams(s))
                assert abs(got) <= 1e-4 * (1.0 + t**s)


def test_constant_gives_exact_zero_on_both_routes():
    def one(z):
        return np.ones_like(np.asarray(z, dtype=float))

    assert sh.frac_laplacian(one, 0.2, FracParams(0.5)) == 0.0
    assert sh.frac_laplacian_pv(one, 0.2, FracParams(0.5)) == 0.0


def test_positive_at_global_maximum():
    # at a global max the second difference is nonnegative everywhere, so
    # the operator value must be positive for any nonconstant function
    funcs = [
        np.cos,
        gaussian,
        lambda z: 1.0 / (1.0 + np.asarray(z, dtype=float) ** 2),
    ]
    for f in funcs:
        for s in (0.3, 0.5, 0.7):
            assert sh.frac_laplacian(f, 0.0, FracParams(s)) > 0.0


def test_tail_certificate_bounds_truncation_effect():
    # shrinking the truncation radius must be covered by the certificate
    p_small = sh.frac_laplacian_detailed(gaussian, 0.0, FracParams(0.5),
                                         QuadConfig(outer_radius=50.0))
    p_big = sh.frac_laplacian_detailed(gaussian, 0.0, FracParams(0.5))
    gap = abs(p_small.value - p_big.value)
    assert gap <= p_small.tail_halfwidth + p_big.tail_halfwidth + 1e-12


def test_lorentzian_half_order_when_the_last_log_bound_rounds_past_r():
    # [DERIVED] for s = 1/2, int_0^inf 2(1 - 1/(1 + y^2))/y^2 dy = pi; at
    # delta = 0.003, R = 100 the last log-spaced bound rounds above R, and a
    # mid field stopping one panel short misses by about 1e-3
    def lorentzian(z):
        return 1.0 / (1.0 + np.asarray(z, dtype=float) ** 2)

    config = QuadConfig(delta=0.003, outer_radius=100.0)
    detail = sh.frac_laplacian_detailed(lorentzian, 0.0, FracParams(0.5), config)
    assert detail.tail_halfwidth < 2e-5
    assert abs(detail.value - math.pi) <= 1e-10
    assert abs(sh.frac_laplacian_pv(lorentzian, 0.0, FracParams(0.5), config)
               - math.pi) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 0.5), st.floats(1.0, 1e8), st.integers(16, 4000),
       st.sampled_from([8, 12]))
def test_mid_layout_covers_the_whole_mid_field(lo, hi, mid_points, order):
    _, wts, _, _ = fraclap._mid_layout(0.5, lo, hi, mid_points, order)
    assert abs(float(np.sum(wts)) - (hi - lo)) <= 1e-12 * (hi - lo)


# ---------------------------------------------------------------------------
# local mean value comparisons


def test_mean_value_sphere_exact_for_quadratic():
    def quad(z):
        return np.asarray(z, dtype=float) ** 2

    for rho in (1e-1, 1e-2, 1e-3):
        assert sh.mean_value_sphere(quad, 0.0, rho) == -2.0


def test_mean_value_ball_quadratic():
    def quad(z):
        return np.asarray(z, dtype=float) ** 2

    got = sh.mean_value_ball(quad, 0.0, 1e-2)
    assert got == pytest.approx(-2.0, rel=1e-6)


def test_mean_value_second_order_convergence_for_sine():
    # deficit -> -u''(x) = sin(x) at rate rho^2
    x = 0.8
    want = math.sin(x)
    errs = []
    for rho in (1e-1, 1e-2):
        errs.append(abs(sh.mean_value_ball(np.sin, x, rho) - want))
    order = math.log(errs[0] / errs[1]) / math.log(10.0)
    assert order >= 1.9


def test_mean_value_rejects_bad_radius():
    with pytest.raises(DomainError):
        sh.mean_value_ball(np.sin, 0.0, 0.0)
    with pytest.raises(DomainError):
        sh.mean_value_sphere(np.sin, 0.0, -1.0)
    # a positive radius whose square underflows would divide by zero
    for rule in (sh.mean_value_ball, sh.mean_value_sphere):
        with pytest.raises(DomainError, match="radius 1e-200 is too small"):
            rule(np.sin, 0.0, 1e-200)


# ---------------------------------------------------------------------------
# how an operand is called


def test_a_vectorized_operand_is_called_once_at_x_and_once_more():
    # no probe call: the value at x, then every other node in one call
    shapes = []

    def counting(z):
        shapes.append(np.shape(z))
        return gaussian(z)

    for rule, calls in [(sh.frac_laplacian, 2), (sh.frac_laplacian_pv, 2),
                        (lambda u, x, _: sh.mean_value_ball(u, x, 0.1), 2),
                        (lambda u, x, _: sh.mean_value_sphere(u, x, 0.1), 1)]:
        shapes.clear()
        value = rule(counting, 0.3, FracParams(0.5))
        assert len(shapes) == calls and value == rule(gaussian, 0.3, FracParams(0.5))
        assert shapes[0] == (1,) if calls == 2 else (3,)


def _scalar_gaussian(z):
    if np.ndim(z):
        raise TypeError("scalars only")
    return math.exp(-float(z) ** 2)


def _branching_gaussian(z):
    # works on one point as an array of one, fails on more
    return gaussian(z) if z > -math.inf else 0.0


@pytest.mark.parametrize("u", [_scalar_gaussian, _branching_gaussian])
def test_an_operand_that_refuses_arrays_is_called_point_by_point(u):
    for x in (0.0, 0.7):
        want = sh.frac_laplacian(gaussian, x, FracParams(0.5))
        assert sh.frac_laplacian(u, x, FracParams(0.5)) == pytest.approx(want, rel=1e-12)
        want = sh.mean_value_ball(gaussian, x, 0.1)
        assert sh.mean_value_ball(u, x, 0.1) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# grid-sampled operands


def _sample_grid():
    xs = np.linspace(-8.0, 8.0, 4001)
    return Target.from_samples(-8.0, 8.0, np.exp(-xs**2)).f


def test_grid_function_operand_matches_callable():
    # a piecewise-linear interpolant is its own function: expect agreement
    # at the interpolation-error scale, not machine precision
    g = _sample_grid()
    got = sh.frac_laplacian(g, 0.0, FracParams(0.5))
    want = sh.frac_laplacian(gaussian, 0.0, FracParams(0.5))
    assert got == pytest.approx(want, rel=1e-2)


def test_grid_csv_skips_blank_rows():
    a, b, values, deriv1, deriv2 = _read_grid_csv("x,value\n-1,1\n\n0,0\n  \n1,1\n")
    assert (a, b, values.tolist(), deriv1, deriv2) == (-1.0, 1.0, [1.0, 0.0, 1.0], None, None)


def test_quadrature_refuses_an_infinite_outer_radius():
    with pytest.raises(ConfigError, match="quadrature radii must be finite"):
        QuadConfig(outer_radius=math.inf)


def test_an_operand_that_is_neither_callable_nor_a_combination_is_refused():
    with pytest.raises(DomainError, match="cannot evaluate operand of type"):
        sh.frac_laplacian("sin", 0.0, FracParams(0.5))


def test_grid_csv_rejects_malformed_input():
    with pytest.raises(ConfigError):
        _read_grid_csv("")
    with pytest.raises(ConfigError):
        _read_grid_csv("a,b\n0,1\n1,2\n")
    with pytest.raises(ConfigError):
        _read_grid_csv("x,value\n0,1\n1\n")
    with pytest.raises(ConfigError):
        _read_grid_csv("x,value\n0,1\n1,notanumber\n")
    with pytest.raises(ConfigError):
        _read_grid_csv("x,value\n0,1\n")
    with pytest.raises(ConfigError):
        _read_grid_csv("x,value\n0,1\n0.5,2\n2,3\n")


@pytest.mark.parametrize("xs", ["-inf,0,inf", "inf,0,inf"])
def test_grid_csv_refuses_infinite_abscissae_without_a_warning(xs):
    # the suite turns RuntimeWarning into an error: the finiteness test comes
    # before any difference of the abscissae
    rows = "".join(f"{x},{i}\n" for i, x in enumerate(xs.split(",")))
    with pytest.raises(ConfigError, match="finite and uniformly increasing"):
        _read_grid_csv("x,value\n" + rows)


def test_grid_function_validation():
    with pytest.raises(DomainError):
        Target.from_samples(1.0, 0.0, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(DomainError):
        Target.from_samples(0.0, 1.0, np.array([0.0]))
    # a second derivative needs three samples
    with pytest.raises(DomainError, match="three samples"):
        Target.from_samples(0.0, 1.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        Target.from_samples(0.0, 1.0, np.array([0.0, np.nan, 1.0]))
    with pytest.raises(DomainError):
        Target.from_samples(0.0, 1.0, np.array([0.0, 1.0, 2.0]), deriv1=np.array([1.0]))


# ---------------------------------------------------------------------------
# failure modes and validation


def test_non_finite_operand_reports_offending_node():
    def patchy(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) > 50.0, np.nan, np.exp(-(z**2)))

    with pytest.raises(EvaluationError) as info:
        sh.frac_laplacian(patchy, 0.0, FracParams(0.5))
    assert abs(info.value.node) > 50.0


def test_unbounded_growth_is_rejected():
    def quad(z):
        return np.asarray(z, dtype=float) ** 2

    with pytest.raises(ConfigError):
        sh.frac_laplacian(quad, 0.0, FracParams(0.5))

    with pytest.raises(ConfigError):
        sh.frac_laplacian(np.exp, 0.0, FracParams(0.5), QuadConfig(outer_radius=50.0))


def test_growth_fitted_at_the_power_2s_is_refused():
    # |z| at s = 0.5 grows like |z|^(2s): the samples at R..8R fit that
    # power, and the tail integral diverges logarithmically
    with pytest.raises(ConfigError,
                       match=r"fitted growth 1\.0000 at radius 10000\.0 reaches 2s=1\.0"):
        sh.frac_laplacian(np.abs, 0.3, FracParams(0.5))


@pytest.mark.parametrize("s", [0.1, 0.5])
def test_bounded_oscillation_is_never_refused_on_a_dense_grid(s):
    # three samples of sin at R, 2R, 4R can happen to fit a power law
    # reaching 2s; the fit must also hold at 8R before it counts
    for x in np.linspace(-0.99, 0.99, 2001):
        detail = sh.frac_laplacian_detailed(np.sin, float(x), FracParams(s))
        assert np.isfinite(detail.value)


def test_pipeline_combination_is_refused_with_its_cause():
    combo, _ = sh.approximate(sh.target_from_spec("x2"), 1.0 / 16.0, 0.5)
    for route in (sh.frac_laplacian_detailed, sh.frac_laplacian_pv):
        with pytest.raises(ConfigError, match="far past .*combo_residual"):
            route(combo, 0.3, FracParams(0.5))


def test_declared_growth_must_converge():
    with pytest.raises(ConfigError):
        QuadConfig(tail_growth=1.5).growth(0.5)
    assert QuadConfig(tail_growth=0.8).growth(0.5) == 0.8
    assert QuadConfig().growth(0.5) == 0.5


def test_quad_config_validation():
    with pytest.raises(ConfigError):
        QuadConfig(delta=10.0, outer_radius=1.0)
    with pytest.raises(ConfigError):
        QuadConfig(delta=0.0)
    with pytest.raises(ConfigError):
        QuadConfig(near_points=4)
    with pytest.raises(ConfigError):
        QuadConfig(mid_points=8)
    with pytest.raises(ConfigError):
        QuadConfig(delta=np.inf, outer_radius=np.inf)
    for growth in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="tail_growth must be finite"):
            QuadConfig(tail_growth=growth)


def test_frac_params_validation():
    for bad in (0.0, 1.0, -0.5, np.nan):
        with pytest.raises(DomainError):
            FracParams(bad)


def test_evaluation_on_kink_is_rejected():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0, 1.0),))
    with pytest.raises(DomainError):
        sh.frac_laplacian(combo, -2.0, FracParams(0.5))


def test_combo_and_callable_routes_agree():
    s = 0.5
    combo = sh.SHCombo(
        s, (sh.SHBlock(2.0, 1.0, 1.0), sh.SHBlock(3.0, -0.5, 1.0)))

    def same(z):
        z = np.asarray(z, dtype=float)
        return (np.maximum(z + 2.0, 0.0) ** s
                - 0.5 * np.maximum(z + 3.0, 0.0) ** s)

    # the callable route cannot grade panels around kinks it does not know
    # about, so agreement is at the blind-kink accuracy scale
    for x in (0.0, 1.2):
        a = sh.frac_laplacian(combo, x, FracParams(s))
        b = sh.frac_laplacian(same, x, FracParams(s))
        assert b == pytest.approx(a, abs=1e-4)


# ---------------------------------------------------------------------------
# reference: both routes written zone by zone, one operand call per zone and
# side, every layout built on each call; the tail fit is _tail_model's


def _ref_checked(f, x, offsets):
    vals = np.asarray(f(x + offsets), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = float((x + offsets)[np.argmax(bad)])
        raise EvaluationError(f"non-finite function value at argument {node}", node=node)
    return vals


def _ref_second_difference(f, x, ys, ux):
    up = _ref_checked(f, x, ys)
    um = _ref_checked(f, x, -ys)
    return 2.0 * ux - up - um


def _ref_mid(f, x, ux, s, lo, hi, n_points, kinks, rule, depth, offset):
    panels = max(n_points // len(rule[0]), 4)
    grid = lo * (hi / lo) ** (np.arange(panels + 1) / panels)
    bounds = set(grid[1:-1]) | {lo, hi}
    for kink in kinks:
        ystar = abs(x - kink)
        if lo < ystar < hi:
            bounds.add(ystar)
            for level in range(1, depth + 1):
                g = ystar * 2.0 ** (-level - offset)
                if ystar - g > lo:
                    bounds.add(ystar - g)
                if ystar + g < hi:
                    bounds.add(ystar + g)
    b = np.array(sorted(p for p in bounds if lo <= p <= hi))
    nodes, wts = fraclap._panel_nodes(b, rule)
    d2 = _ref_second_difference(f, x, nodes, ux)
    return float(np.sum(wts * d2 * nodes ** (-1.0 - 2.0 * s)))


def _ref_tail(f, x, ux, s, R, gamma):
    sides = []
    for sgn in (+1.0, -1.0):
        args = x + sgn * np.array([R, 2.0 * R, 4.0 * R, 8.0 * R])
        sides.append((args, np.asarray(f(args), dtype=float)))
    return fraclap._tail_model(sides, ux, s, R, gamma)


def _ref_start(u, x, params, config):
    config = QuadConfig() if config is None else config
    gamma = config.growth(params.s)
    f, kinks, combo = fraclap._as_function(u, operator=True)
    x = float(x)
    ux = float(_ref_checked(f, x, np.array([0.0]))[0])
    delta = fraclap._effective_delta(config.delta, x, kinks)
    return config, gamma, f, kinks, combo, x, ux, delta


def _detailed_reference(u, x, params, config=None):
    config, gamma, f, kinks, combo, x, ux, delta = _ref_start(u, x, params, config)
    s, n = params.s, config.near_points
    scale = 1.0 + abs(x)
    beta = 2.0 - 2.0 * s
    W = delta**beta
    w = (np.arange(n) + 0.5) * (W / n)
    y = w ** (1.0 / beta)
    phi = np.empty(n)
    small = y < min(1e-4 * scale, 0.25 * delta)
    if np.any(small):
        if combo is not None:
            d2, d4 = float(combo_derivative(combo, x, 2)), float(combo_derivative(combo, x, 4))
        else:
            h2 = 6e-4 * scale
            p = _ref_checked(f, x, np.array([-2 * h2, -h2, 0.0, h2, 2 * h2]))
            d2 = (-p[0] + 16 * p[1] - 30 * p[2] + 16 * p[3] - p[4]) / (12 * h2 * h2)
            h4 = 6e-3 * scale
            q = _ref_checked(f, x, np.array([-2 * h4, -h4, 0.0, h4, 2 * h4]))
            d4 = (q[0] - 4 * q[1] + 6 * q[2] - 4 * q[3] + q[4]) / h4**4
        ys = y[small]
        phi[small] = -d2 - d4 * ys * ys / 12.0
    big = ~small
    if np.any(big):
        yb = y[big]
        phi[big] = _ref_second_difference(f, x, yb, ux) / (yb * yb)
    near = (W / (n * beta)) * float(phi.sum())
    mid = _ref_mid(f, x, ux, s, delta, config.outer_radius, config.mid_points, kinks,
                   fraclap._gauss(8), 30, 6)
    tail, halfwidth, ghats = _ref_tail(f, x, ux, s, config.outer_radius, gamma)
    return FracLapDetail(near + mid + tail, halfwidth, near, mid, tail, delta, ghats)


def _pv_reference(u, x, params, config=None):
    config, gamma, f, kinks, _, x, ux, delta = _ref_start(u, x, params, config)
    s, K = params.s, 6
    rhos = delta * 2.0 ** (-np.arange(K + 1))
    partial = [0.0]
    for k in range(K):
        nodes, wts = fraclap._panel_nodes(np.array([rhos[k + 1], rhos[k]]), fraclap._gauss(12))
        d2 = _ref_second_difference(f, x, nodes, ux)
        partial.append(partial[-1] + float(np.sum(wts * d2 * nodes ** (-1.0 - 2.0 * s))))
    b1, b2 = 2.0 - 2.0 * s, 4.0 - 2.0 * s
    A = np.array([[1.0, rhos[k] ** b1, rhos[k] ** b2] for k in (K, K - 1, K - 2)])
    near = float(np.linalg.solve(A, np.array([partial[K], partial[K - 1], partial[K - 2]]))[0])
    mid = _ref_mid(f, x, ux, s, delta, config.outer_radius, config.mid_points, kinks,
                   fraclap._gauss(12), 26, 7)
    tail, _, _ = _ref_tail(f, x, ux, s, config.outer_radius, gamma)
    return near + mid + tail


def _outcome(route, *args):
    """repr of the result (exact for floats, signed zeros included), or the
    error's type, message and node."""
    try:
        return repr(route(*args))
    except (ConfigError, DomainError, EvaluationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "node", None)


_ROUTES = ((sh.frac_laplacian_detailed, _detailed_reference),
           (sh.frac_laplacian_pv, _pv_reference))


def cosmix(z):
    return np.cos(z) + 0.5 * np.sin(3.0 * np.asarray(z, dtype=float))


_GRID = Target.from_samples(-8.0, 8.0, np.exp(-np.linspace(-8.0, 8.0, 401) ** 2)).f


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(-0.99, 0.99), st.data(),
       st.builds(QuadConfig, delta=st.floats(1e-4, 0.1), near_points=st.integers(8, 96),
                 mid_points=st.integers(16, 3000)))
def test_routes_equal_the_reference_bit_for_bit(s, x, data, config):
    # float combos have their kinks at -t/r in [-1200, -1], inside the mid
    # field, and as close to x as 0.01, where delta shrinks to half the gap
    blocks = st.lists(st.builds(sh.SHBlock, st.floats(1.0, 60.0), st.floats(-2.0, 2.0),
                                st.floats(0.05, 1.0)), min_size=1, max_size=3)
    u = data.draw(st.one_of(st.sampled_from([gaussian, cosmix, np.arctan, _GRID]),
                            blocks.map(lambda b: sh.SHCombo(s, tuple(b)))))
    params = FracParams(s)
    for config in (None, config):
        for route, reference in _ROUTES:
            want = _outcome(reference, u, x, params, config)
            assert isinstance(want, str)
            assert _outcome(route, u, x, params, config) == want


def test_a_kink_near_x_equals_the_reference():
    # x within 2 delta of a kink: the near field and the PV rings shrink
    # with the gap, and the split points reach down to the mid field's start
    combo = sh.SHCombo(0.4, (sh.SHBlock(1.0, 1.0), sh.SHBlock(1.5, -0.3, 0.5)))
    for x in (-0.9999, -0.9995, -0.999, -0.99):
        for route, reference in _ROUTES:
            want = _outcome(reference, combo, x, FracParams(0.4), None)
            assert isinstance(want, str)
            assert _outcome(route, combo, x, FracParams(0.4), None) == want


# ---------------------------------------------------------------------------
# which error wins when several zones fail


def test_first_non_finite_node_is_the_references():
    def patchy(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) > 50.0, np.nan, np.exp(-(z**2)))

    for x in (0.0, 0.37, -0.8):
        for route, reference in _ROUTES:
            want = _outcome(reference, patchy, x, FracParams(0.5), None)
            assert want[0] == "EvaluationError" and want[2] > 50.0
            assert _outcome(route, patchy, x, FracParams(0.5), None) == want


def test_growth_on_the_plus_tail_wins_over_nan_on_the_minus_tail():
    # the minus side is NaN only beyond the mid field, so the plus side's
    # growth is found first
    def lopsided(z):
        z = np.asarray(z, dtype=float)
        return np.where(z < -1.5e4, np.nan, np.abs(z) ** 1.5)

    for route, reference in _ROUTES:
        want = _outcome(reference, lopsided, 0.2, FracParams(0.5), None)
        assert want[0] == "ConfigError"
        assert _outcome(route, lopsided, 0.2, FracParams(0.5), None) == want


def test_a_point_on_a_kink_is_refused_on_both_routes():
    combo = sh.SHCombo(0.5, (sh.SHBlock(2.0, 1.0), sh.SHBlock(3.0, -0.5, 0.5)))
    for x in (-2.0, -6.0):
        for route, reference in _ROUTES:
            want = _outcome(reference, combo, x, FracParams(0.5), None)
            assert want[0] == "DomainError"
            assert _outcome(route, combo, x, FracParams(0.5), None) == want


def test_cli_exit_codes_of_refused_operands(capsys):
    # exp overflows inside the mid field: EvaluationError, exit 3, and the
    # message names the reference's node
    f = sh.target_from_spec("exp").f
    with np.errstate(over="ignore"):
        _, message, _ = _outcome(_detailed_reference, f, -0.9, FracParams(0.5), None)
        assert main(["fraclap", "--target", "exp", "--grid", "2"]) == 3
    assert f"error: {message}" in capsys.readouterr().err
    # a grid point on the kink of block:t=1: DomainError, exit 2
    for method in ("direct", "pv"):
        assert main(["fraclap", "--target", "block:t=1", "--xmin", "-1.0", "--grid", "2",
                     "--method", method]) == 2
        assert "sits exactly on a kink" in capsys.readouterr().err
