"""End-to-end acceptance checks with one printed pass/fail line each.

Every check here states the quantity it certifies and the measured margin,
so a bare ``pytest -s tests/test_acceptance.py`` reads as a certificate.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import richardson_derivative

import sharmonic as sh
from sharmonic.approximate import target_from_spec
from sharmonic.blocks import DerivSpec, _vandermonde_inverse, falling_factorial
from sharmonic.cli import main as cli_main
from sharmonic.fraclap import FracParams


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_block_annihilation_within_budget_and_time():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        for t in (1.0, 2.0, 5.0):
            combo = sh.SHCombo(s, (sh.SHBlock(t, 1.0, 1.0),))
            budget = 1e-4 * (1.0 + t**s)
            xs = np.linspace(-0.9 * t, 5.0, 23)[1:-1]
            for x in xs:
                got = abs(sh.frac_laplacian(combo, float(x), FracParams(s)))
                worst = max(worst, got / budget)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed <= 5.0
    _check("block annihilation",
           ok, f"worst residual at {worst:.3f} of the 1e-4*(1+t^s) budget over "
               f"9 (s, t) pairs x 21 points, elapsed {elapsed:.2f} s (limit 5 s)")


def test_quadratic_budget_and_standard_targets():
    t0 = time.perf_counter()
    details = []
    ok = True

    combo, report = sh.approximate(target_from_spec("x2"), 1.0 / 16.0, 0.5)
    xs = np.linspace(-1.0, 1.0, 8191)
    resampled = 0.0
    target = target_from_spec("x2")
    for m in range(3):
        diff = target.derivative(m)(xs) - sh.combo_derivative(combo, xs, m)
        resampled = max(resampled, float(np.max(np.abs(diff))))
    ok &= report.epsilon_total <= 1.0 / 16.0
    ok &= resampled <= (1.0 / 16.0) * 1.01
    ok &= report.max_residual <= 1e-3
    details.append(f"x2: certified {report.epsilon_total:.2e} <= 1/16, "
                   f"resampled {resampled:.2e}, residual {report.max_residual:.2e}")

    for spec in ("sin", "exp", "const:1"):
        tgt = target_from_spec(spec)
        combo, report = sh.approximate(tgt, 0.1, 0.5)
        resampled = 0.0
        for m in range(3):
            diff = tgt.derivative(m)(xs) - sh.combo_derivative(combo, xs, m)
            resampled = max(resampled, float(np.max(np.abs(diff))))
        ok &= report.epsilon_total <= 0.1 and resampled <= 0.1 * 1.01
        details.append(f"{spec}: {report.epsilon_total:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 30.0
    _check("C2-norm approximation budget",
           ok, "; ".join(details) + f"; elapsed {elapsed:.1f} s (limit 30 s)")


def test_harnack_witness_numbers():
    w = sh.harnack_counterexample(0.5, eps=1.0 / 16.0, samples=4096)
    sup_ball = max(w.sup_inner, w.sup_outer_complement)
    conditions = {
        "v(0) <= 1/16": w.value_origin <= 1.0 / 16.0,
        "v(+-1/2) >= 3/16": w.boundary_level >= 3.0 / 16.0,
        "u >= 0 on 4096 samples": w.nonneg_margin >= 0.0,
        "inf over [-1/2,1/2] <= 1e-10": w.inf_inner <= 1e-10,
        "sup over (-1,1) >= 1/8": sup_ball >= 1.0 / 8.0,
    }
    ok = all(conditions.values())
    failed = [k for k, v in conditions.items() if not v]
    _check("Harnack failure witness",
           ok, f"v(0)={w.value_origin:.3e}, level={w.boundary_level:.4f}, "
               f"margin={w.nonneg_margin:.2e}, inf={w.inf_inner:.2e}, "
               f"sup={sup_ball:.4f}" + (f"; FAILED {failed}" if failed else ""))


def test_block_derivatives_match_finite_differences():
    worst = 0.0
    ok = True
    for s in (0.25, 0.5, 0.75):
        for t in (1.0, 2.0, 5.0):
            for j in range(5):
                f = lambda z: (z + t) ** s
                want = richardson_derivative(f, 0.0, j, h=(0.02 + 0.03 * j) * t)
                got = sh.block_derivative_at_zero(t, j, s)
                rel = abs(got - want) / abs(want)
                worst = max(worst, rel)
                ok &= rel <= 1e-5
                if j >= 1:
                    ok &= got != 0.0  # non-integer s keeps all orders alive
    _check("derivative closed form vs finite differences",
           ok, f"worst relative gap {worst:.2e} (limit 1e-5) over "
               f"j<=4, t in {{1,2,5}}, s in {{0.25,0.5,0.75}}; "
               f"all orders >= 1 nonzero")


def test_derivative_matching_solve_and_structure():
    ok = True
    worst_res = 0.0
    worst_entry = 0.0
    rng_values = [3.0, -1.0, 2.0, 0.5, -2.0, 1.5, -0.25, 4.0, -3.5]
    for J in (1, 2, 4, 8):
        nodes = sh.default_nodes(J)
        values = tuple(rng_values[: J + 1])
        combo = sh.solve_derivative_match(DerivSpec(values), nodes, 0.5)
        back = sh.readback_derivatives(combo, J + 1)
        scale = 1.0 + max(abs(v) for v in values)
        res = float(np.max(np.abs(back - np.array(values)))) / scale
        worst_res = max(worst_res, res)
        ok &= res <= 1e-8

        # after scaling row i by 1/fall(s, i) and column k by t_k^-s the
        # system is the Vandermonde matrix in 1/t, inverted exactly
        scaled = np.array([[sh.block_derivative_at_zero(t, i, 0.5)
                            / falling_factorial(0.5, i) / t**0.5 for t in nodes]
                           for i in range(J + 1)])
        vander = np.vander(1.0 / nodes, J + 1, increasing=True).T
        entry = float(np.max(np.abs(scaled - vander)))
        worst_entry = max(worst_entry, entry)
        ok &= entry <= 1e-12
        inverse, _ = _vandermonde_inverse(tuple(float(t) for t in nodes))
        xs = [1 / Fraction(float(t)) for t in nodes]
        ok &= all(sum(row[i] * x**i for i in range(J + 1)) == (k == m)
                  for k, row in enumerate(inverse) for m, x in enumerate(xs))
    _check("derivative matching solve",
           ok, f"worst read-back residual {worst_res:.2e} of scale "
               f"(limit 1e-8), worst Vandermonde entry gap {worst_entry:.2e} "
               f"(limit 1e-12), exact inverse times Vandermonde is the "
               f"identity, for J in {{1,2,4,8}}")


def test_mean_value_oracles():
    quad = target_from_spec("x2")
    ball = sh.mean_value_ball(quad.f, 0.0, 1e-2)
    sphere_vals = [sh.mean_value_sphere(quad.f, 0.0, rho)
                   for rho in (1e-1, 1e-2, 1e-3)]
    table = sh.mean_value_table(target_from_spec("sin"), 0.8,
                                rhos=(1e-1, 1e-2, 1e-3))
    orders = [o for kind in ("ball", "sphere") for o in table["orders"][kind]]
    min_order = min(o for o in orders if np.isfinite(o)) if any(
        np.isfinite(o) for o in orders) else float("inf")
    ok = (abs(ball + 2.0) <= 1e-6
          and all(v == -2.0 for v in sphere_vals)
          and all(o >= 1.9 or not np.isfinite(o) for o in orders))
    _check("mean value oracles",
           ok, f"ball deficit {ball:.9f} (target -2 within 1e-6), sphere "
               f"exactly -2 at three radii, sine orders >= {min_order:.3f}")


def test_operator_identities():
    ok = True
    worst_routes = 0.0
    for s in (0.3, 0.5, 0.7):
        for x in (0.0, 0.7):
            a = sh.frac_laplacian(lambda z: np.exp(-(np.asarray(z) ** 2)),
                                  x, FracParams(s))
            b = sh.frac_laplacian_pv(lambda z: np.exp(-(np.asarray(z) ** 2)),
                                     x, FracParams(s))
            rel = abs(a - b) / max(abs(a), 1e-300)
            worst_routes = max(worst_routes, rel)
            ok &= rel <= 1e-8

    worst_scale = 0.0
    for s in (0.3, 0.6):
        for lam in (0.5, 2.0):
            for x in (0.0, 0.35):
                lhs = sh.frac_laplacian(
                    lambda z: np.exp(-((lam * np.asarray(z)) ** 2)),
                    x, FracParams(s))
                rhs = lam ** (2 * s) * sh.frac_laplacian(
                    lambda z: np.exp(-(np.asarray(z) ** 2)),
                    lam * x, FracParams(s))
                rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
                worst_scale = max(worst_scale, rel)
                ok &= rel <= 1e-6

    peaked = [
        np.cos,
        lambda z: np.exp(-(np.asarray(z) ** 2)),
        lambda z: 1.0 / (1.0 + np.asarray(z) ** 2),
        lambda z: 2.0 * np.exp(-np.abs(np.asarray(z)))
        / (1.0 + np.exp(-2.0 * np.abs(np.asarray(z)))),  # sech without overflow
        lambda z: np.exp(-(np.asarray(z) ** 4)),
        lambda z: np.cos(np.asarray(z)) * np.exp(-(np.asarray(z) ** 2)),
        lambda z: 1.0 / (1.0 + np.asarray(z) ** 4),
        lambda z: np.exp(-((np.asarray(z) / 2.0) ** 2)),
        lambda z: 2.0 / (2.0 + np.asarray(z) ** 2),
        lambda z: np.cos(np.asarray(z) / 2.0),
    ]
    min_margin = float("inf")
    for f in peaked:
        val = sh.frac_laplacian(f, 0.0, FracParams(0.5))
        min_margin = min(min_margin, val)
        ok &= val > 0.0
    _check("operator identities",
           ok, f"two routes agree to {worst_routes:.2e} rel (limit 1e-8), "
               f"scaling law to {worst_scale:.2e} rel (limit 1e-6), "
               f"positivity margin {min_margin:.3f} at 10 maxima")


def test_logistic_balance_demonstration():
    sigma = target_from_spec("const:1")
    mu = target_from_spec("const:1")
    w = sh.logistic_resource_plan(sigma, mu, eps=0.05, s=0.5)
    ok = (w.sigma_error <= 0.05
          and w.feasibility_margin >= 0.0
          and w.residual_equation <= 1e-3
          and w.residual_reaction <= 1e-3)
    _check("logistic balance",
           ok, f"sigma error {w.sigma_error:.2e} <= 0.05, feasibility "
               f"{w.feasibility_margin:+.1e} >= 0, equation side "
               f"{w.residual_equation:.2e} and reaction side "
               f"{w.residual_reaction:.2e} both <= 1e-3 at 21 points")


def test_cli_artifacts_are_deterministic(tmp_path):
    commands = {
        "fraclap-direct": ["fraclap", "--target", "block:t=1", "--grid", "7"],
        "fraclap-pv": ["fraclap", "--target", "sin", "--method", "pv",
                       "--grid", "5"],
        "approximate": ["approximate", "--target", "sin", "--epsilon", "0.1",
                        "--grid", "9"],
        "demo-harnack": ["demo", "harnack", "--grid", "21"],
        "demo-logistic": ["demo", "logistic", "--grid", "9"],
        "demo-meanvalue": ["demo", "meanvalue", "--target", "x2"],
    }
    ok = True
    stable = []
    for name, argv in commands.items():
        blobs = []
        for run in ("a", "b"):
            csv_path = tmp_path / f"{name}-{run}.csv"
            json_path = tmp_path / f"{name}-{run}.json"
            rc = cli_main(argv + ["--out-csv", str(csv_path),
                                  "--out-json", str(json_path)])
            ok &= rc == 0
            blobs.append(csv_path.read_bytes() + b"\0" + json_path.read_bytes())
        same = blobs[0] == blobs[1]
        ok &= same
        stable.append(f"{name}={'ok' if same else 'DIFFERS'}")
    _check("CLI determinism",
           ok, "byte-identical reruns: " + ", ".join(stable))
