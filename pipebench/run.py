"""Pipeline benchmark of sharmonic: three workloads, one command.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload {cli-tight,library-sweep,evaluate} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload in a closed loop for S seconds and reports
the end-to-end metrics named in BENCHMARK.json:

  setup_s      median over several set-ups of interpreter start, import and
               the workload's warm-up or artifact build;
  op_ms.mean   mean time of the workload's unit operation: one CLI
               invocation (cli-tight), one approximate() call
               (library-sweep), one round of the read path (evaluate);
               each part of the workload's fixed mix (CLI invocation,
               eps level) is averaged over its samples first, so the
               run's last, partial pass over the mix does not tilt it;
  peak_rss_mb  largest resident set of the worker or of the CLI children.

Set-up and operation times are scaled by the reference computation timed
around each of them (see workloads.reference_ms; operation times by the
median reference of their neighbourhood, see scaled_ops); the raw times are printed
too.  The report also gives op_ms.p50 and each operation's latency by name (cli_s,
approximate_s, artifact_point_ms, grid_eval_ms, fraclap_point_ms,
fraclap_pv_point_ms) as a median and, from twenty samples on, a tail with
its percentile and sample count, plus wall_s and failed_frac.  On
evaluate, failed_frac includes the refusals of a known-defect probe that
the result line's attempted/failed leave out (see workloads.Evaluate.probe).

``--trace 1`` runs a fixed, seeded operation list twice, with spans around
every layer and without, and reports the per-layer metrics and the
tracing overhead.  Counts are compared with the previous traced run of
the same code and seed in this checkout, and any difference is reported.

Both print a human-readable report (host, workload rationale, metrics with
units and sample counts, correctness gates) followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when a
correctness gate failed, 2 when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import (CLI_MIX, CLI_TIMEOUT_S, REFERENCE_NOMINAL_MS, ROOT, SCRATCH, SRC,
                       Record, child_env, cli_ops, cli_round, closed_loop,
                       reference_ms, run_cli)

WORKER = Path(__file__).with_name("worker.py")
STATE = ROOT / ".pipebench_state"
SETUPS = {"cli-tight": 9, "library-sweep": 3, "evaluate": 3}
WORKER_TIMEOUT_S = 150

EXPECTED_GATES = {
    "cli-tight": ("approximate_within_budget", "approximate_finite_residual",
                  "demo_finite_residual", "cli_deterministic"),
    "library-sweep": ("approximate_within_budget", "approximate_finite_residual"),
    "evaluate": ("approximate_within_budget", "approximate_finite_residual",
                 "gaussian_2sqrtpi", "loaded_matches_memory", "direct_pv_agree",
                 "block_annihilated"),
}

# Operation latencies reported by name per workload (the first is the
# workload's unit operation); each sample list is printed with its count.
LATENCIES = {
    "cli-tight": ("cli_s",),
    "library-sweep": ("approximate_s",),
    "evaluate": ("artifact_point_ms", "grid_eval_ms", "fraclap_point_ms",
                 "fraclap_pv_point_ms", "load_ms"),
}

# Which end-to-end metric each per-layer metric should move, on which
# workload.  Written down before measuring; printed with the traced run.
PREDICTIONS = (
    ("cli.import_s", "setup_s on all three workloads; cli_s on cli-tight"),
    ("approximate.cheb_fit.self_s, .degree", "approximate_s on library-sweep (small share)"),
    ("approximate.build_sharmonic.self_s", "approximate_s on library-sweep"),
    ("approximate.{poly,defect}_budget_used, .halvings",
     "exact.*.dps_max and cli_s on cli-tight"),
    ("blocks.solve_derivative_match.*, blocks.rescale_for_defect.*",
     "approximate_s on library-sweep; cli_s on cli-tight"),
    ("blocks.n_blocks, .scale_log10_min, .coef_digits_max",
     "cli_s on cli-tight; artifact_point_ms on evaluate"),
    ("blocks.combo_to_json.s, blocks.artifact_bytes", "cli_s on cli-tight"),
    ("blocks.combo_from_json.s", "wall of the evaluate rounds (op_ms)"),
    ("blocks.combo_derivative.loaded_s", "artifact_point_ms on evaluate"),
    ("blocks.combo_derivative.series_s", "grid_eval_ms on evaluate"),
    ("exact.canonical_constant.*",
     "cli_s on cli-tight (large share); approximate_s on library-sweep (small share)"),
    ("exact.combo_residual.self_s, .residual_points, .residual_bound_max",
     "cli_s on cli-tight; approximate_s on library-sweep"),
    ("demos.*.self_s", "cli_s on cli-tight"),
    ("fraclap.*.s, .f_evals_per_point, .refused",
     "fraclap_point_ms, fraclap_pv_point_ms and failed_frac on evaluate"),
    ("kernels.power_series_eval.*",
     "grid_eval_ms on evaluate; small share of approximate_s"),
    ("kernels.combo_values.s, .combo_derivatives.s",
     "fraclap_point_ms on evaluate (float block operand)"),
)

COUNT_UNITS = ("count", "digits", "bytes")


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank); None below twenty samples."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = math.ceil(pct * n / 100)
    return pct, sorted(values)[rank - 1]


def host_info() -> dict:
    import sharmonic
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba": "importable" if importlib.util.find_spec("numba") else "absent",
        "backend": getattr(sharmonic, "BACKEND", "absent"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }


# ---------------------------------------------------------------------------
# processes


def spawn_worker(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), repr(seconds), mode,
           repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise RuntimeError(f"worker {workload} {mode} exited {proc.returncode}")
    return json.loads(lines[-1][len("RESULT "):])


def time_import(module: str) -> float:
    # stdout is a pipe so that run() waits for the child on the pipe: a bare
    # wait with a timeout polls in sleeps of up to 50 ms, which would
    # quantise the ~0.3 s import time
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT, env=child_env(),
                   stdout=subprocess.PIPE, check=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start


def merge_records(records: list[dict]) -> Record:
    out = Record()
    for r in records:
        for name, values in r["samples"].items():
            out.samples.setdefault(name, []).extend(values)
        out.attempted += r["attempted"]
        out.failed += r["failed"]
        for kind, n in r["refused"].items():
            out.refused[kind] = out.refused.get(kind, 0) + n
        for name, (checks, failures, detail) in r["gates"].items():
            entry = out.gates.setdefault(name, [0, 0, ""])
            entry[0] += checks
            entry[1] += failures
            entry[2] = entry[2] or detail
        for name, value in r["notes"].items():
            out.note_max(name, value)
        out.ops.extend(r["ops"])
        for kind, (attempted, refused) in r["known"].items():
            entry = out.known.setdefault(kind, [0, 0])
            entry[0] += attempted
            entry[1] += refused
    return out


# ---------------------------------------------------------------------------
# runs


def scaled_ops(ops: list) -> list[float]:
    """Operation times scaled to the nominal reference.  Each divides by the
    median reference of the operation and its two neighbours on each side:
    host speed jitters by ~10% between reference readings a fraction of a
    second apart, more than it drifts over a few operations."""
    refs = [ref for _, ref, _ in ops]
    return [t * REFERENCE_NOMINAL_MS / statistics.median(refs[max(0, i - 2):i + 3])
            for i, (t, _, _) in enumerate(ops)]


def with_reference(fn):
    """fn() and the mean reference time measured just before and after it."""
    before = reference_ms()
    out = fn()
    return out, 0.5 * (before + reference_ms())


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[Record, dict]:
    """Closed loop for `seconds`; returns the record and run-level figures.
    Set-up samples are [seconds, reference ms] pairs."""
    if workload == "cli-tight":
        setups = [with_reference(lambda: time_import("sharmonic.cli"))
                  for _ in range(SETUPS[workload])]
        rec, digests = Record(), {}
        ops = cli_ops(seed, time.perf_counter() + seconds)
        wall = closed_loop(lambda op: run_cli(op[1], rec, digests, op[0]), ops, rec,
                           kind=lambda op: op[0])
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        results = [with_reference(lambda: spawn_worker(workload, seed, seconds, "setup"))
                   for _ in range(SETUPS[workload] - 1)]
        results.append(with_reference(lambda: spawn_worker(workload, seed, seconds, "timed")))
        rec = merge_records([r["record"] for r, _ in results])
        setups = [(r["setup_s"], ref) for r, ref in results]
        wall = results[-1][0]["wall_s"]
        rss_kb = max(r["maxrss_kb"] for r, _ in results)
    return rec, {"setups": setups, "wall_s": wall, "peak_rss_mb": rss_kb / 1024.0}


def run_traced(workload: str, seed: int) -> tuple[Record, dict]:
    """Fixed operation list with spans, then without; per-layer figures."""
    if workload == "cli-tight":
        # each invocation runs untraced, then traced, so both see the same
        # host speed; the children share no state
        ref, rec, digests = Record(), Record(), {}
        SCRATCH.mkdir(exist_ok=True)
        outs = [SCRATCH / f"trace-{i}.json" for i in range(len(CLI_MIX))]
        untraced = traced = 0.0
        for i in cli_round(seed, 0):
            args = CLI_MIX[i]
            untraced += closed_loop(lambda a: run_cli(a, ref, digests, i), [args], ref)
            traced += closed_loop(lambda a: run_cli(a, rec, digests, i, traced_out=outs[i]),
                                      [args], rec)
        children = [json.loads(out.read_text()) for out in outs if out.exists()]
        snapshots = [c["trace"] for c in children]
        imports = [c["import_s"] for c in children]
    else:
        result = spawn_worker(workload, seed, 0.0, "traced")
        reference = spawn_worker(workload, seed, 0.0, "reference")
        rec = merge_records([result["record"]])
        traced, untraced = result["wall_s"], reference["wall_s"]
        snapshots, imports = [result["trace"]], [result["import_s"]]
    merged = tracing.merge(snapshots)
    values = tracing.layer_values(merged)
    timed = merged["counters"].get("timed", {})
    points = timed.get("fraclap.callable_points", 0)
    values["fraclap.f_evals_per_point"] = timed.get("fraclap.f_evals", 0) / points if points else 0
    values["cli.import_s"] = statistics.median(imports) if imports else None
    values.update({
        "trace.wall_s": traced, "trace.untraced_wall_s": untraced,
        "trace.overhead_s": traced - untraced, "trace.spans": merged["spans"],
        "trace.absent_hooks": len(merged["absent"]),
    })
    return rec, {"values": values, "merged": merged}


# ---------------------------------------------------------------------------
# reporting


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.glob("sharmonic/*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def count_mismatches(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare this traced run's counts with the last traced run of the same
    code and seed in this checkout, then store them for the next one."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"counts-{workload}-{seed}.json"
    digest = code_digest()
    diffs = []
    if path.exists():
        old = json.loads(path.read_text())
        if old["code"] == digest:
            diffs = [f"{k}: {old['counts'].get(k)} -> {v}" for k, v in counts.items()
                     if old["counts"].get(k) != v]
    path.write_text(json.dumps({"code": digest, "counts": counts}, sort_keys=True))
    return diffs


def print_table(rows: list[tuple[str, object, str, object]]) -> None:
    for name, value, unit, n in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        sys.stdout.write(f"  {name:<42} {shown:>14} {unit:<7} {'' if n is None else f'n={n}'}\n")


def report_latencies(workload: str, rec: Record) -> list:
    rows = []
    for name in LATENCIES[workload]:
        values = rec.samples.get(name, [])
        unit = "ms" if name.endswith("_ms") else "s"
        base = name.rsplit("_", 1)[0] + "_" + unit
        if values:
            rows.append((f"{base}.p50", statistics.median(values), unit, len(values)))
        t = tail(values)
        if t is not None and name != "fraclap_pv_point_ms":
            rows.append((f"{base}.tail (p{t[0]})", t[1], unit, len(values)))
    return rows


def gates_ok(workload: str, rec: Record) -> bool:
    ok = True
    for name in sorted(set(EXPECTED_GATES[workload]) | set(rec.gates)):
        checks, failures, detail = rec.gates.get(name, [0, 0, ""])
        status = "ok" if checks and not failures else "FAILED"
        ok = ok and status == "ok"
        sys.stdout.write(f"# gate {name}: {checks - failures}/{checks} {status}"
                         f"{'  ' + detail if failures else ''}\n")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sharmonic" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"pipebench: {ROOT} has no src/sharmonic package or no "
                         f"BENCHMARK.json; run from the root of a sharmonic checkout\n")
        return 2
    spec = json.loads(spec_path.read_text())
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        sys.stderr.write(f"pipebench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(whys)}\n")
        return 2
    sys.path.insert(0, str(SRC))
    host = host_info()
    out = sys.stdout
    out.write(f"# pipebench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}\n")
    out.write("# host: " + " ".join(f"{k}={v}" for k, v in host.items()) + "\n")
    out.write(f"# why: {whys[args.workload]} Seed {args.seed}.\n")

    try:
        if args.trace:
            rec, run = run_traced(args.workload, args.seed)
        else:
            rec, run = run_untraced(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    # failed_frac counts the known-defect probe too; the result line's
    # attempted/failed count only the operations expected to succeed
    known_attempted = sum(a for a, _ in rec.known.values())
    known_refused = sum(r for _, r in rec.known.values())
    total = rec.attempted + known_attempted
    failed_frac = (rec.failed + known_refused) / total if total else float("nan")
    if args.trace:
        values = run["values"]
        absent = run["merged"]["absent"]
        listed = spec["per_layer"]
        counts = {m["name"]: values.get(m["name"], 0) for m in listed
                  if m["unit"] in COUNT_UNITS and not m["name"].startswith("trace.")}
        diffs = count_mismatches(args.workload, args.seed, counts)
        values["trace.count_mismatches"] = len(diffs)
        out.write("per-layer metrics (timed phase of the traced run):\n")
        metrics, rows = {}, []
        for m in listed:
            name = m["name"]
            value = values.get(name)
            gone = any(name.startswith(a + ".") for a in absent)
            rows.append((name, "absent" if gone else (0 if value is None else value),
                         m["unit"], None))
            metrics[name] = {"value": 0 if value is None or gone else value, "unit": m["unit"]}
        print_table(rows)
        for diff in diffs:
            out.write(f"# count changed since the last traced run of this code and seed: {diff}\n")
        out.write("# predictions (layer metric -> end-to-end metric it should move):\n")
        for layer, target in PREDICTIONS:
            out.write(f"#   {layer} -> {target}\n")
        self_times = {k[:-len(".self_s")]: v for k, v in values.items()
                      if k.endswith(".self_s") and v}
        if self_times:
            top = max(self_times, key=self_times.get)
            out.write(f"# largest self time: {top} {self_times[top]:.4g} s\n")
        blocks_self = sum(v for k, v in self_times.items() if k.startswith("blocks."))
        out.write(f"# blocks.* self time {blocks_self:.4g} s; exact.canonical_constant.s "
                  f"{values.get('exact.canonical_constant.s') or 0:.4g} s\n")

    else:
        setups = [t * REFERENCE_NOMINAL_MS / ref for t, ref in run["setups"]]
        ops = scaled_ops(rec.ops) or [math.nan]
        by_kind = {}
        for t, (_, _, kind) in zip(ops, rec.ops):
            by_kind.setdefault(kind, []).append(t)
        e2e = {
            "setup_s": statistics.median(setups),
            "op_ms.mean": statistics.fmean(map(statistics.fmean, by_kind.values()))
                          if by_kind else math.nan,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        n = {"setup_s": len(setups), "op_ms.mean": len(rec.ops)}
        out.write(f"end-to-end metrics (times scaled to a {REFERENCE_NOMINAL_MS:g} ms "
                  f"reference computation):\n")
        rows = [(m["name"], e2e[m["name"]], m["unit"], n.get(m["name"]))
                for m in spec["end_to_end"]]
        refs = [ref for _, ref in run["setups"]] + [ref for _, ref, _ in rec.ops]
        rows += [("op_ms.p50", statistics.median(ops), "ms", len(rec.ops)),
                 ("reference_ms.p50 (raw)", statistics.median(refs), "ms", len(refs)),
                 ("setup_s (raw)", statistics.median(t for t, _ in run["setups"]), "s", len(setups)),
                 ("setup_s samples (raw)", " ".join(f"{t:.3f}" for t, _ in run["setups"]), "s",
                  None),
                 ("op_ms.p50 (raw)", statistics.median([t for t, _, _ in rec.ops] or [math.nan]),
                  "ms", len(rec.ops)),
                 ("op_ms.mean (raw)", statistics.fmean([t for t, _, _ in rec.ops] or [math.nan]),
                  "ms", len(rec.ops)),
                 ("wall_s", run["wall_s"], "s", None),
                 ("failed_frac", failed_frac, "ratio", total)]
        rows += report_latencies(args.workload, rec)
        print_table(rows)
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    out.write(f"# operations: attempted={rec.attempted} failed={rec.failed}"
              + "".join(f" {k}={v}" for k, v in sorted(rec.refused.items())) + "\n")
    if rec.known:
        out.write("# known-defect probe (ROADMAP item 2), refused/attempted:"
                  + "".join(f" {k}={r}/{a}" for k, (a, r) in sorted(rec.known.items()))
                  + "\n")
    out.write(f"# failed_frac (operations and probe): {failed_frac:.6g}\n")
    for name, value in sorted(rec.notes.items()):
        out.write(f"# {name} max: {value:.6g}\n")
    correct = gates_ok(args.workload, rec)
    out.write(json.dumps({"correct": correct, "attempted": rec.attempted,
                          "failed": rec.failed, "metrics": metrics}) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
