"""Witness constructions: Harnack failure, logistic plans, mean value tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharmonic as sh
from sharmonic.errors import ConfigError


@pytest.fixture(scope="module")
def harnack_half():
    return sh.harnack_counterexample(0.5)


@pytest.fixture(scope="module")
def logistic_const():
    sigma = sh.target_from_spec("const:1")
    mu = sh.target_from_spec("const:1")
    return sh.logistic_resource_plan(sigma, mu, eps=0.05, s=0.5)


# ---------------------------------------------------------------------------
# Harnack failure


def test_harnack_witness_contrast(harnack_half):
    w = harnack_half
    assert w.epsilon == 1.0 / 16.0
    # interior infimum is pinned at the rounding floor while the outer
    # half of the ball stays above a fixed level: no Harnack constant
    # can relate the two
    assert 0.0 <= w.inf_inner <= 1e-10
    assert w.sup_inner >= 1.0 / 8.0
    assert w.sup_inner / max(w.inf_inner, 1e-300) >= 1e10
    assert w.value_origin <= 1.0 / 16.0
    assert w.boundary_level >= 3.0 / 16.0
    assert w.inf_outer >= 0.125


def test_harnack_witness_is_nonnegative_on_ball(harnack_half):
    w = harnack_half
    assert w.nonneg_margin >= 0.0
    xs = np.linspace(-1.0, 1.0, 1001)[1:-1]
    vals = sh.combo_eval(w.u, xs) - w.iota
    assert np.all(vals >= 0.0)
    assert abs(w.iota) <= w.epsilon


def test_harnack_witness_solves_equation(harnack_half):
    w = harnack_half
    assert w.report.max_residual <= 1e-3
    assert w.report.epsilon_total <= w.epsilon


def test_harnack_witness_goes_negative_outside(harnack_half):
    # global nonnegativity must fail, otherwise the classical inequality
    # would forbid the interior contrast recorded above
    site = harnack_half.negative_site
    assert site is not None
    x, val = site
    assert val < 0.0
    assert abs(x) > 1.0
    got = float(sh.combo_eval(harnack_half.u, x)) - harnack_half.iota
    assert got == val


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.02, 0.24))
def test_harnack_argmin_is_the_grid_minimum(s, eps):
    # the Newton minimiser of the strictly convex approximant is at or
    # below every point of a dense grid of the inner half-ball
    w = sh.harnack_counterexample(s, eps)
    vmin = sh.combo_eval(w.u, w.argmin)
    grid = sh.combo_eval(w.u, np.linspace(-0.5, 0.5, 2001))
    assert np.all(vmin <= grid)
    assert w.inf_inner == vmin - w.iota


def test_harnack_other_operator_order():
    w = sh.harnack_counterexample(0.3)
    assert w.nonneg_margin >= 0.0
    assert w.inf_inner <= 1e-9
    assert w.sup_inner / max(w.inf_inner, 1e-300) >= 1e6


def test_harnack_rejects_useless_tolerances():
    for eps in (0.0, 0.25, 0.5, -0.1):
        with pytest.raises(ConfigError):
            sh.harnack_counterexample(0.5, eps=eps)


# ---------------------------------------------------------------------------
# logistic resource plan


def test_logistic_constant_pair_certificates(logistic_const):
    w = logistic_const
    assert w.sigma_error <= 0.05
    assert w.feasibility_margin == 0.0
    assert w.residual_reaction == 0.0
    assert w.residual_equation <= 1e-3
    assert w.epsilon_inner == 0.05 / (4.0 * (1.0 + w.mu_norm))
    xs = np.linspace(-0.9, 0.9, 7)
    assert np.max(np.abs(sh.combo_eval(w.u, xs) - 1.0)) <= w.epsilon_inner


def test_logistic_plan_tracks_requested_schedule(logistic_const):
    w = logistic_const
    xs = np.linspace(-1.0, 1.0, 513)
    assert float(np.max(np.abs(w.sigma_eps(xs) - 1.0))) <= w.sigma_error


def test_logistic_nonconstant_profile():
    sigma = sh.target_from_spec("exp")
    mu = sh.target_from_spec("const:2")
    w = sh.logistic_resource_plan(sigma, mu, eps=0.1, s=0.5)
    assert w.sigma_error <= 0.1
    assert w.feasibility_margin == 0.0
    assert w.residual_reaction == 0.0
    assert w.residual_equation <= 1e-3
    xs = np.linspace(-0.9, 0.9, 9)
    assert np.allclose(sh.combo_eval(w.u, xs), np.exp(xs) / 2.0,
                       atol=w.epsilon_inner * 1.05)


def test_logistic_matching_profile_and_consumption():
    # sigma = mu makes the quotient constant one
    sigma = sh.target_from_spec("exp")
    mu = sh.target_from_spec("exp")
    w = sh.logistic_resource_plan(sigma, mu, eps=0.1, s=0.5)
    assert w.sigma_error <= 0.1
    xs = np.linspace(-0.8, 0.8, 7)
    assert np.max(np.abs(sh.combo_eval(w.u, xs) - 1.0)) <= 2.0 * w.epsilon_inner


def test_logistic_rejects_vanishing_consumption():
    sigma = sh.target_from_spec("const:1")
    mu = sh.target_from_spec("sin")  # vanishes at 0
    with pytest.raises(ConfigError):
        sh.logistic_resource_plan(sigma, mu, eps=0.1, s=0.5)


def test_logistic_rejects_bad_tolerance():
    sigma = sh.target_from_spec("const:1")
    mu = sh.target_from_spec("const:1")
    with pytest.raises(ConfigError):
        sh.logistic_resource_plan(sigma, mu, eps=0.0, s=0.5)


# ---------------------------------------------------------------------------
# mean value table


def test_mean_value_table_quadratic():
    table = sh.mean_value_table(sh.target_from_spec("x2"), 0.0)
    assert table["reference"] == -2.0
    assert len(table["rows"]) == 3
    for row in table["rows"]:
        assert row["sphere_error"] <= 1e-12
        assert row["ball_error"] <= 1e-6
    assert len(table["orders"]["ball"]) == 2


def test_mean_value_table_sine_orders():
    table = sh.mean_value_table(sh.target_from_spec("sin"), 0.8,
                                rhos=(1e-1, 1e-2))
    for kind in ("ball", "sphere"):
        order = table["orders"][kind][0]
        assert order == float("inf") or order >= 1.9


def test_mean_value_table_needs_two_radii():
    with pytest.raises(ConfigError):
        sh.mean_value_table(sh.target_from_spec("sin"), 0.0, rhos=(0.1,))
