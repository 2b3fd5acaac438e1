"""Span tracer for the traced benchmark run.

Each hooked function is wrapped in every loaded ``sharmonic`` module that
holds a reference to it, because that is where its callers look it up:
``approximate.py`` imports ``solve_derivative_match`` by name, ``exact``
calls its own module-global ``canonical_constant``, ``blocks`` calls
``_kernels.<fn>`` through the module, and the package attribute
``sharmonic.approximate`` is the function, not the module.  A hooked
function that no longer exists is reported as absent, never as an error.

Spans live in memory; the tracer keeps, per span name, the call count,
the inclusive time and the self time (span time minus the time covered
by child spans), plus the counters the observers below record from the
arguments and results they see.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped by the tracer; the span name is
# "<layer>.<function>" with the module's leading underscore dropped.
HOOKS = (
    ("sharmonic.cli", "main"),
    ("sharmonic.approximate", "approximate"),
    ("sharmonic.approximate", "cheb_fit"),
    ("sharmonic.approximate", "build_sharmonic"),
    ("sharmonic.blocks", "solve_derivative_match"),
    ("sharmonic.blocks", "rescale_for_defect"),
    ("sharmonic.blocks", "combo_to_json"),
    ("sharmonic.blocks", "combo_from_json"),
    ("sharmonic.blocks", "combo_derivative"),
    ("sharmonic.exact", "canonical_constant"),
    ("sharmonic.exact", "combo_residual"),
    ("sharmonic.demos", "harnack_counterexample"),
    ("sharmonic.demos", "logistic_resource_plan"),
    ("sharmonic.fraclap", "frac_laplacian_detailed"),
    ("sharmonic.fraclap", "frac_laplacian_pv"),
    ("sharmonic._kernels", "power_series_eval"),
    ("sharmonic._kernels", "combo_values"),
    ("sharmonic._kernels", "combo_derivatives"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{function}"


@dataclass
class _Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans and counters, bucketed by phase ("setup", "timed")."""

    phase: str = "setup"
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    spans: int = 0
    _stack: list = field(default_factory=list)
    _phi_seen: set = field(default_factory=set)
    _combo_seen: dict = field(default_factory=dict)

    # -- counters ---------------------------------------------------------

    def add(self, key: str, amount) -> None:
        bucket = self.counters.setdefault(self.phase, {})
        bucket[key] = bucket.get(key, 0) + amount

    def peak(self, key: str, value, lowest: bool = False) -> None:
        bucket = self.counters.setdefault(self.phase, {})
        old = bucket.get(key)
        if old is None or (value < old if lowest else value > old):
            bucket[key] = value

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            tracer._stack.append(frame)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                stat = tracer.stats.setdefault(tracer.phase, {}).setdefault(name, _Stat())
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                tracer.spans += 1
                if observe is not None:
                    observe(tracer, args, kwargs, result, exc, elapsed)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every hook in every loaded sharmonic module that refers to it."""
        homes = {}
        for module_name, _ in HOOKS:
            try:
                homes[module_name] = importlib.import_module(module_name)
            except ImportError:
                homes[module_name] = None
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sharmonic" or n.startswith("sharmonic."))]
        for module_name, function in HOOKS:
            name = span_name(module_name, function)
            original = getattr(homes[module_name], function, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, _OBSERVERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- observers' helpers --------------------------------------------

    def see_combo(self, combo) -> None:
        """Structure of a combination the pipeline produced or loaded."""
        blocks = getattr(combo, "blocks", None)
        if blocks is None or id(combo) in self._combo_seen:
            return
        self._combo_seen[id(combo)] = combo  # the reference keeps the id unique
        self.peak("blocks.n_blocks", len(blocks))
        for b in blocks:
            r = float(getattr(b, "r", 1.0))
            if r > 0:
                self.peak("blocks.scale_log10_min", math.log10(r), lowest=True)
            c = abs(getattr(b, "c", 0.0))
            if c:
                # decimal digits of the integer part of |c| (0 when |c| < 1);
                # mpmath values keep their magnitude beyond float range
                digits = int(_log10(c)) + 1 if c >= 1 else 0
                self.peak("blocks.coef_digits_max", digits)

    def snapshot(self) -> dict:
        """Plain-data summary, mergeable across processes."""
        return {
            "stats": {phase: {n: [s.calls, s.total, s.self_time] for n, s in stats.items()}
                      for phase, stats in self.stats.items()},
            "counters": self.counters,
            "absent": sorted(self.absent),
            "spans": self.spans,
        }


def _log10(value) -> float:
    if isinstance(value, float):
        return math.log10(value)
    import mpmath
    return float(mpmath.log10(value))


# ---------------------------------------------------------------------------
# observers: counts taken where the work happens, from arguments and results


def _obs_approximate(tr, args, kwargs, result, exc, elapsed):
    if result is None:
        return
    combo, report = result
    tr.see_combo(combo)
    half = 0.5 * float(getattr(report, "epsilon_requested", float("nan")))
    if half > 0:
        tr.peak("approximate.poly_budget_used", float(report.epsilon_poly) / half)
        tr.peak("approximate.defect_budget_used", float(report.epsilon_defect) / half)


def _obs_cheb_fit(tr, args, kwargs, result, exc, elapsed):
    if result is not None:
        tr.peak("approximate.cheb_fit.degree", int(getattr(result, "degree", 0)))


def _obs_build(tr, args, kwargs, result, exc, elapsed):
    if result is not None:
        groups = getattr(result[1], "groups", ())
        tr.add("approximate.halvings", sum(int(getattr(g, "halvings", 0)) for g in groups))


def _obs_match(tr, args, kwargs, result, exc, elapsed, name=""):
    info = getattr(result, "match_info", None)
    if info is not None:
        tr.peak(f"{name}.dps_max", int(info.dps))


def _obs_to_json(tr, args, kwargs, result, exc, elapsed):
    if isinstance(result, str):
        tr.add("blocks.artifact_bytes", len(result.encode()))


def _obs_from_json(tr, args, kwargs, result, exc, elapsed):
    if result is not None:
        tr.see_combo(result)


def _obs_combo_derivative(tr, args, kwargs, result, exc, elapsed):
    combo = args[0] if args else kwargs.get("combo")
    if getattr(combo, "series", ()):
        path = "series"
    elif any(not isinstance(getattr(b, "c", 0.0), float) for b in getattr(combo, "blocks", ())):
        path = "loaded"
    else:
        path = "float"
    tr.add(f"blocks.combo_derivative.{path}_s", elapsed)


def _obs_phi(tr, args, kwargs, result, exc, elapsed):
    p, s, dps = list(args) + [kwargs[k] for k in ("p", "s", "dps")[len(args):]]
    key = (float(p), float(s), int(dps))
    if key not in tr._phi_seen:
        tr._phi_seen.add(key)
        tr.add("exact.canonical_constant.misses", 1)
    tr.peak("exact.canonical_constant.dps_max", int(dps))


def _obs_residual(tr, args, kwargs, result, exc, elapsed):
    if result is not None and len(result):
        tr.add("exact.residual_points", len(result))
        tr.peak("exact.residual_bound_max", float(max(result)))


def _obs_fraclap(tr, args, kwargs, result, exc, elapsed):
    if exc is not None:
        from sharmonic.errors import SharmonicError
        if isinstance(exc, SharmonicError):
            tr.add("fraclap.refused", 1)


def _obs_series(tr, args, kwargs, result, exc, elapsed):
    if result is not None:
        tr.add("kernels.power_series_eval.points", int(getattr(result, "size", 1)))


_OBSERVERS = {
    "approximate.approximate": _obs_approximate,
    "approximate.cheb_fit": _obs_cheb_fit,
    "approximate.build_sharmonic": _obs_build,
    "blocks.solve_derivative_match":
        lambda *a: _obs_match(*a, name="blocks.solve_derivative_match"),
    "blocks.rescale_for_defect":
        lambda *a: _obs_match(*a, name="blocks.rescale_for_defect"),
    "blocks.combo_to_json": _obs_to_json,
    "blocks.combo_from_json": _obs_from_json,
    "blocks.combo_derivative": _obs_combo_derivative,
    "exact.canonical_constant": _obs_phi,
    "exact.combo_residual": _obs_residual,
    "fraclap.frac_laplacian_detailed": _obs_fraclap,
    "fraclap.frac_laplacian_pv": _obs_fraclap,
    "kernels.power_series_eval": _obs_series,
}


# ---------------------------------------------------------------------------
# merging snapshots and deriving the per-layer metrics


_MAX_KEYS = ("dps_max", "degree", "n_blocks", "coef_digits_max", "budget_used",
             "residual_bound_max")


def merge(snapshots: list[dict]) -> dict:
    """Combine per-process snapshots: sums for times and counts, extremes
    for the *_max / *_min style counters."""
    out = {"stats": {}, "counters": {}, "absent": set(), "spans": 0}
    for snap in snapshots:
        out["spans"] += snap["spans"]
        out["absent"].update(snap["absent"])
        for phase, stats in snap["stats"].items():
            dst = out["stats"].setdefault(phase, {})
            for name, (calls, total, self_time) in stats.items():
                c, t, st = dst.get(name, (0, 0.0, 0.0))
                dst[name] = (c + calls, t + total, st + self_time)
        for phase, counters in snap["counters"].items():
            dst = out["counters"].setdefault(phase, {})
            for key, value in counters.items():
                if key not in dst:
                    dst[key] = value
                elif key.endswith("_min"):
                    dst[key] = min(dst[key], value)
                elif key.endswith(_MAX_KEYS):
                    dst[key] = max(dst[key], value)
                else:
                    dst[key] += value
    out["absent"] = sorted(out["absent"])
    return out


def layer_values(merged: dict, phase: str = "timed") -> dict:
    """Per-layer metric values of one phase, keyed by metric name.

    Span metrics are "<span>.s" (inclusive), "<span>.self_s" and
    "<span>.calls"; a span whose function is absent yields None for all
    three so the report can say so.
    """
    stats = merged["stats"].get(phase, {})
    values = dict(merged["counters"].get(phase, {}))
    for module, function in HOOKS:
        name = span_name(module, function)
        if name in merged["absent"]:
            for suffix in ("s", "self_s", "calls"):
                values[f"{name}.{suffix}"] = None
            continue
        calls, total, self_time = stats.get(name, (0, 0.0, 0.0))
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = self_time
        values[f"{name}.calls"] = calls
    return values
