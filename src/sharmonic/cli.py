"""Command line front end.

Subcommands: ``fraclap`` (batch operator evaluation on a grid),
``approximate`` (build a certified approximant and emit report + trace),
and ``demo`` (harnack | logistic | meanvalue reproductions).  All outputs
are deterministic: identical configurations produce byte-identical CSV
and JSON artifacts.  Timing information goes to stderr only.

Exit codes: 0 success, 2 configuration error, 3 evaluation error,
4 approximation or conditioning error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exact
from .approximate import approximate, interior_points, target_from_spec
from .blocks import SHBlock, SHCombo, combo_eval, combo_to_json
from .demos import (harnack_counterexample, logistic_resource_plan,
                    mean_value_table)
from .errors import (ApproximationError, ConfigError, DomainError,
                     EvaluationError)
from .fraclap import (FracParams, GridFunction, QuadConfig,
                      frac_laplacian_detailed, frac_laplacian_pv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVALUATION = 3
EXIT_APPROXIMATION = 4

_FLOAT_KEYS = {"s", "epsilon", "xmin", "xmax", "x", "delta", "outer_radius",
               "tail_growth"}
_INT_KEYS = {"grid", "near_points", "mid_points", "degree_cap"}
_STR_KEYS = {"target", "sigma", "mu", "method", "rhos", "out_csv", "out_json"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    """Resolved options for one command after flag/file/default merging."""

    command: str
    which: str | None = None
    target: str | None = None
    sigma: str | None = None
    mu: str | None = None
    s: float = 0.5
    epsilon: float | None = None
    grid: int = 101
    xmin: float = -0.9
    xmax: float = 0.9
    x: float = 0.0
    method: str = "direct"
    rhos: str = "0.1,0.01,0.001"
    degree_cap: int = 30
    delta: float | None = None
    outer_radius: float | None = None
    near_points: int | None = None
    mid_points: int | None = None
    tail_growth: float | None = None
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ConfigError(f"s must lie in (0, 1), got {self.s}")
        if self.grid < 2:
            raise ConfigError(f"grid resolution must be >= 2, got {self.grid}")
        if not (self.xmin < self.xmax):
            raise ConfigError(f"need xmin < xmax, got [{self.xmin}, {self.xmax}]")
        if self.epsilon is not None and not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.method not in ("direct", "pv"):
            raise ConfigError(f"method must be direct or pv, got {self.method!r}")

    def quad_config(self) -> QuadConfig:
        kwargs = {}
        if self.delta is not None:
            kwargs["delta"] = self.delta
        if self.outer_radius is not None:
            kwargs["outer_radius"] = self.outer_radius
        if self.near_points is not None:
            kwargs["near_points"] = self.near_points
        if self.mid_points is not None:
            kwargs["mid_points"] = self.mid_points
        if self.tail_growth is not None:
            kwargs["tail_growth"] = self.tail_growth
        return QuadConfig(**kwargs)


def _load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and '#' comments are skipped."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value: str):
    try:
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
    except ValueError as exc:
        raise ConfigError(f"option {key}={value!r} is not a number") from exc
    return value


def _resolve(args: argparse.Namespace, defaults: dict) -> RunConfig:
    """Merge precedence: explicit flags, then config file, then defaults."""
    file_values = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    merged = dict(defaults)
    for key, raw in file_values.items():
        merged[key] = _coerce(key, raw)
    for key in list(merged) + ["command", "which"]:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    merged["command"] = args.command
    merged["which"] = getattr(args, "which", None)
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# deterministic artifact writers


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _write_csv(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_json(path: str, obj) -> None:
    Path(path).write_text(_json_text(obj))


def _write_report_with_combo(path: str, report_obj: dict, combo: SHCombo) -> None:
    """Single artifact holding the report and the full-precision combo.

    The combo JSON is spliced in as text so extended-precision coefficient
    digits survive; rounding them through float would break read-back.
    """
    combo_text = combo_to_json(combo).strip()
    combo_indented = "\n".join("  " + ln for ln in combo_text.splitlines())
    report_text = json.dumps(report_obj, sort_keys=True, indent=2,
                             allow_nan=False)
    report_indented = "\n".join("  " + ln for ln in report_text.splitlines())
    text = ('{\n  "combo": ' + combo_indented.lstrip() + ',\n'
            '  "report": ' + report_indented.lstrip() + "\n}\n")
    json.loads(text)  # fail fast if the splice ever breaks
    Path(path).write_text(text)


# ---------------------------------------------------------------------------
# commands


def _fraclap_operand(spec: str, s: float):
    """Operand for the quadrature engine; allows blocks on top of targets."""
    spec = spec.strip()
    if spec.startswith("block:"):
        body = spec.split(":", 1)[1]
        if not body.startswith("t="):
            raise ConfigError(f"block operand must look like block:t=<t>, got {spec!r}")
        try:
            t = float(body[2:])
        except ValueError as exc:
            raise ConfigError(f"malformed block operand {spec!r}") from exc
        if not (t > 0) or not np.isfinite(t):
            raise ConfigError(f"block offset must be positive and finite, got {t}")
        return SHCombo(s, (SHBlock(t, 1.0),)), f"block:t={t}"
    if spec.startswith("csv:"):
        path = spec.split(":", 1)[1]
        try:
            return GridFunction.from_csv(path), spec
        except OSError as exc:
            raise ConfigError(f"cannot read CSV target {path!r}: {exc}") from exc
    target = target_from_spec(spec)
    return target.f, target.name


def cmd_fraclap(cfg: RunConfig) -> int:
    if cfg.target is None:
        raise ConfigError("fraclap requires --target")
    operand, name = _fraclap_operand(cfg.target, cfg.s)
    params = FracParams(cfg.s)
    qc = cfg.quad_config()
    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)

    if isinstance(operand, SHCombo):
        uvals = combo_eval(operand, xs)
    elif isinstance(operand, GridFunction):
        uvals = operand.as_function()(xs)
    else:
        uvals = np.asarray(operand(xs), dtype=float)

    rows = []
    for x, ux in zip(xs, uvals):
        if cfg.method == "pv":
            value = frac_laplacian_pv(operand, float(x), params, qc)
            halfwidth = float("nan")
            detail_rows = [float(x), float(ux), value]
        else:
            detail = frac_laplacian_detailed(operand, float(x), params, qc)
            value = detail.value
            halfwidth = detail.tail_halfwidth
            detail_rows = [float(x), float(ux), value, halfwidth]
        rows.append(detail_rows)

    header = ["x", "value", "fraclap_value"]
    if cfg.method == "direct":
        header.append("tail_halfwidth")
    if cfg.out_csv:
        _write_csv(cfg.out_csv, header, rows)
    if cfg.out_json:
        payload = {
            "command": "fraclap", "target": name, "s": cfg.s,
            "method": cfg.method, "grid": cfg.grid,
            "xmin": cfg.xmin, "xmax": cfg.xmax,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_json(cfg.out_json, payload)
    maxval = max(abs(row[2]) for row in rows)
    print(f"fraclap target={name} s={_fmt(cfg.s)} method={cfg.method} "
          f"points={cfg.grid} max|result|={_fmt(maxval)}")
    return EXIT_OK


def cmd_approximate(cfg: RunConfig) -> int:
    if cfg.target is None:
        raise ConfigError("approximate requires --target")
    eps = cfg.epsilon if cfg.epsilon is not None else 0.0625
    target = target_from_spec(cfg.target)
    try:
        combo, report = approximate(target, eps, cfg.s, degree_cap=cfg.degree_cap)
    except ApproximationError as exc:
        if cfg.out_json:
            _write_json(cfg.out_json, {
                "command": "approximate", "target": target.name, "s": cfg.s,
                "epsilon": eps, "error": str(exc),
            })
        raise

    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)
    tvals = np.asarray(target.f(xs), dtype=float)
    vvals = combo_eval(combo, xs)
    if combo.blocks:
        res = exact.combo_residual(combo, xs)
    else:
        res = np.zeros_like(xs)
    rows = [[float(a), float(b), float(c), float(b - c), float(d)]
            for a, b, c, d in zip(xs, tvals, vvals, res)]
    if cfg.out_csv:
        _write_csv(cfg.out_csv, ["x", "target", "v_eps", "diff", "residual"], rows)
    if cfg.out_json:
        _write_report_with_combo(cfg.out_json, report.to_dict(), combo)
    print(f"approximate target={target.name} s={_fmt(cfg.s)} "
          f"epsilon={_fmt(eps)} blocks={len(combo.blocks)} "
          f"epsilon_total={_fmt(report.epsilon_total)} "
          f"max_residual={_fmt(report.max_residual)}")
    return EXIT_OK


def _demo_harnack(cfg: RunConfig) -> int:
    eps = cfg.epsilon if cfg.epsilon is not None else 0.0625
    w = harnack_counterexample(cfg.s, eps)
    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)
    uvals = combo_eval(w.u.combo, xs) - w.iota
    if cfg.out_csv:
        _write_csv(cfg.out_csv, ["x", "u"],
                   [[float(a), float(b)] for a, b in zip(xs, uvals)])
    payload = {
        "command": "demo harnack", "s": w.s, "epsilon": w.epsilon,
        "iota": w.iota, "argmin": w.argmin,
        "inf_inner": w.inf_inner, "sup_inner": w.sup_inner,
        "inf_outer": w.inf_outer,
        "sup_outer_complement": w.sup_outer_complement,
        "nonneg_margin": w.nonneg_margin,
        "value_origin": w.value_origin, "boundary_level": w.boundary_level,
        "negative_site": list(w.negative_site) if w.negative_site else None,
        "max_residual": w.report.max_residual,
        "harnack_ratio": (w.sup_inner / w.inf_inner
                          if w.inf_inner > 0 else None),
    }
    if cfg.out_json:
        _write_report_with_combo(cfg.out_json, payload, w.u.combo)
    print(f"demo harnack s={_fmt(w.s)} inf_inner={_fmt(w.inf_inner)} "
          f"sup_inner={_fmt(w.sup_inner)} value_origin={_fmt(w.value_origin)} "
          f"boundary_level={_fmt(w.boundary_level)} "
          f"nonneg_margin={_fmt(w.nonneg_margin)}")
    return EXIT_OK


def _demo_logistic(cfg: RunConfig) -> int:
    eps = cfg.epsilon if cfg.epsilon is not None else 0.05
    sigma = target_from_spec(cfg.sigma if cfg.sigma is not None else "const:1")
    mu = target_from_spec(cfg.mu if cfg.mu is not None else "const:1")
    w = logistic_resource_plan(sigma, mu, eps, cfg.s)
    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)
    uvals = combo_eval(w.u, xs)
    svals = np.asarray(sigma.f(xs), dtype=float)
    sevals = np.asarray(w.sigma_eps(xs), dtype=float)
    res = exact.combo_residual(w.u, xs) if w.u.blocks else np.zeros_like(xs)
    rows = [[float(a), float(b), float(c), float(d), float(e)]
            for a, b, c, d, e in zip(xs, uvals, svals, sevals, res)]
    if cfg.out_csv:
        _write_csv(cfg.out_csv, ["x", "u", "sigma", "sigma_eps", "residual"], rows)
    payload = {
        "command": "demo logistic", "s": w.s, "epsilon": w.epsilon,
        "epsilon_inner": w.epsilon_inner, "mu_norm": w.mu_norm,
        "sigma": sigma.name, "mu": mu.name,
        "sigma_error": w.sigma_error,
        "feasibility_margin": w.feasibility_margin,
        "residual_equation": w.residual_equation,
        "residual_reaction": w.residual_reaction,
    }
    if cfg.out_json:
        _write_report_with_combo(cfg.out_json, payload, w.u)
    print(f"demo logistic sigma={sigma.name} mu={mu.name} s={_fmt(w.s)} "
          f"sigma_error={_fmt(w.sigma_error)} "
          f"feasibility_margin={_fmt(w.feasibility_margin)} "
          f"residual={_fmt(w.residual_equation)}")
    return EXIT_OK


def _demo_meanvalue(cfg: RunConfig) -> int:
    target = target_from_spec(cfg.target if cfg.target is not None else "x2")
    try:
        rhos = tuple(float(tok) for tok in cfg.rhos.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"malformed rhos list {cfg.rhos!r}") from exc
    if any(not (r > 0) for r in rhos):
        raise ConfigError(f"all radii must be positive, got {cfg.rhos!r}")
    table = mean_value_table(target, cfg.x, rhos)
    print(f"demo meanvalue target={target.name} x={_fmt(cfg.x)} "
          f"reference={_fmt(table['reference'])}")
    print("rho,ball,sphere,ball_error,sphere_error")
    rows = []
    for row in table["rows"]:
        rows.append([row["rho"], row["ball"], row["sphere"],
                     row["ball_error"], row["sphere_error"]])
        print(",".join(_fmt(v) for v in rows[-1]))
    orders = {k: [_fmt(v) if np.isfinite(v) else "exact" for v in vs]
              for k, vs in table["orders"].items()}
    print(f"observed orders ball={orders['ball']} sphere={orders['sphere']}")
    if cfg.out_csv:
        _write_csv(cfg.out_csv,
                   ["rho", "ball", "sphere", "ball_error", "sphere_error"], rows)
    if cfg.out_json:
        payload = {
            "command": "demo meanvalue", "target": target.name, "x": cfg.x,
            "reference": table["reference"], "rows": table["rows"],
            "orders": {k: [v if np.isfinite(v) else None for v in vs]
                       for k, vs in table["orders"].items()},
        }
        _write_json(cfg.out_json, payload)
    return EXIT_OK


def cmd_demo(cfg: RunConfig) -> int:
    if cfg.which == "harnack":
        return _demo_harnack(cfg)
    if cfg.which == "logistic":
        return _demo_logistic(cfg)
    if cfg.which == "meanvalue":
        return _demo_meanvalue(cfg)
    raise ConfigError(f"unknown demo {cfg.which!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key=value options file; flags win")
    sp.add_argument("--s", type=float, help="fractional order in (0, 1)")
    sp.add_argument("--grid", type=int, help="number of evaluation points")
    sp.add_argument("--xmin", type=float, help="left end of evaluation grid")
    sp.add_argument("--xmax", type=float, help="right end of evaluation grid")
    sp.add_argument("--out-csv", dest="out_csv", help="CSV artifact path")
    sp.add_argument("--out-json", dest="out_json", help="JSON artifact path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharmonic",
        description="Fractional Laplacian quadrature and certified "
                    "approximation by functions the operator annihilates.")
    sub = parser.add_subparsers(dest="command", required=True)

    fp = sub.add_parser("fraclap", help="evaluate the operator on a grid")
    fp.add_argument("--target",
                    help="x2 | sin | exp | const:<c> | csv:<path> | block:t=<t>")
    fp.add_argument("--method", choices=("direct", "pv"),
                    help="second-difference (direct) or principal-value route")
    fp.add_argument("--delta", type=float, help="near/mid zone boundary")
    fp.add_argument("--outer-radius", dest="outer_radius", type=float,
                    help="mid/tail zone boundary")
    fp.add_argument("--near-points", dest="near_points", type=int,
                    help="near-zone quadrature points")
    fp.add_argument("--mid-points", dest="mid_points", type=int,
                    help="mid-zone quadrature point budget")
    fp.add_argument("--tail-growth", dest="tail_growth", type=float,
                    help="a priori growth exponent bound, must be < 2s")
    _add_common(fp)

    ap = sub.add_parser("approximate", help="build a certified approximant")
    ap.add_argument("--target", help="x2 | sin | exp | const:<c> | csv:<path>")
    ap.add_argument("--epsilon", type=float, help="C2 tolerance (default 1/16)")
    ap.add_argument("--degree-cap", dest="degree_cap", type=int,
                    help="polynomial degree ceiling (default 30)")
    _add_common(ap)

    dp = sub.add_parser("demo", help="reproduce the headline constructions")
    dsub = dp.add_subparsers(dest="which", required=True)

    hp = dsub.add_parser("harnack", help="interior infimum collapse witness")
    hp.add_argument("--epsilon", type=float, help="C2 tolerance (default 1/16)")
    _add_common(hp)

    lp = dsub.add_parser("logistic", help="resource plan with exact steady state")
    lp.add_argument("--sigma", help="requested schedule target (default const:1)")
    lp.add_argument("--mu", help="consumption coefficient target (default const:1)")
    lp.add_argument("--epsilon", type=float, help="schedule tolerance (default 0.05)")
    _add_common(lp)

    mp = dsub.add_parser("meanvalue", help="classical mean value convergence")
    mp.add_argument("--target", help="function to probe (default x2)")
    mp.add_argument("--x", type=float, help="evaluation point (default 0)")
    mp.add_argument("--rhos", help="comma-separated radii (default 0.1,0.01,0.001)")
    _add_common(mp)
    return parser


_DISPATCH = {"fraclap": cmd_fraclap, "approximate": cmd_approximate,
             "demo": cmd_demo}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        defaults = {f: getattr(RunConfig, f, None)
                    for f in ("target", "sigma", "mu", "s", "epsilon", "grid",
                              "xmin", "xmax", "x", "method", "rhos",
                              "degree_cap", "delta", "outer_radius",
                              "near_points", "mid_points", "tail_growth",
                              "out_csv", "out_json")}
        cfg = _resolve(args, defaults)
        code = _DISPATCH[cfg.command](cfg)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except ApproximationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_APPROXIMATION
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
