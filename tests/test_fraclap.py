"""Float64 quadrature engine: oracles, invariances, and input validation."""

import math

import numpy as np
import pytest

import sharmonic as sh
from sharmonic.errors import ConfigError, DomainError, EvaluationError
from sharmonic.fraclap import FracParams, GridFunction, QuadConfig


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
        want = sh.power_block_reference(t, p, s, x)
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


# ---------------------------------------------------------------------------
# grid-sampled operands


def _sample_grid():
    xs = np.linspace(-8.0, 8.0, 4001)
    return GridFunction(-8.0, 8.0, np.exp(-xs**2))


def test_grid_function_operand_matches_callable():
    # a piecewise-linear interpolant is its own function: expect agreement
    # at the interpolation-error scale, not machine precision
    g = _sample_grid()
    got = sh.frac_laplacian(g, 0.0, FracParams(0.5))
    want = sh.frac_laplacian(gaussian, 0.0, FracParams(0.5))
    assert got == pytest.approx(want, rel=1e-2)


def test_grid_csv_round_trip_is_byte_stable(tmp_path):
    xs = np.linspace(-1.0, 1.0, 33)
    g = GridFunction(-1.0, 1.0, np.sin(xs), np.cos(xs), -np.sin(xs))
    path = tmp_path / "grid.csv"
    g.to_csv(path)
    first = path.read_bytes()
    back = GridFunction.from_csv(path)
    assert np.array_equal(back.values, g.values)
    assert np.array_equal(back.deriv1, g.deriv1)
    assert np.array_equal(back.deriv2, g.deriv2)
    back.to_csv(path)
    assert path.read_bytes() == first


def test_grid_csv_rejects_malformed_input():
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("")
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("a,b\n0,1\n1,2\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("x,value\n0,1\n1\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("x,value\n0,1\n1,notanumber\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("x,value\n0,1\n")
    with pytest.raises(ConfigError):
        GridFunction.from_csv_text("x,value\n0,1\n0.5,2\n2,3\n")


def test_grid_function_validation():
    with pytest.raises(DomainError):
        GridFunction(1.0, 0.0, np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 1.0, np.array([0.0, np.nan]))
    with pytest.raises(DomainError):
        GridFunction(0.0, 1.0, np.array([0.0, 1.0]), deriv1=np.array([1.0]))
    with pytest.raises(DomainError):
        _sample_grid().derivative_function(3)


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
