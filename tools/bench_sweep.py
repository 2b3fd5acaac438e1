"""Where the time of one library-sweep ``approximate`` call goes, stage by
stage, in this tree and in another checkout.

Usage, from the root of a checkout:

    python3 tools/bench_sweep.py --parent PATH [--out BENCH_sweep.json]

PATH is a second checkout to compare against (for example the parent
commit, made with ``git clone`` or ``git archive``).  Each of RUNS fresh
interpreters per tree, parent and change alternating, runs the
library-sweep warm-up of ``pipebench/workloads.py`` and then ``approximate``
on the first TARGETS seed-1 library-sweep targets, with timers wrapped
around these stages:

* ``cheb_fit``: the Chebyshev stage, its full certificates left out;
* ``certificate``: every full 4096-point certificate of a Chebyshev
  degree (the calls of ``approximate._certified``);
* ``conversion``: the Chebyshev interpolant's monomials as the values to
  match: the monomial numerators, the kept degrees and the dropped C^2
  weight (``approximate._matching_values``);
* ``exact_match``: ``blocks._exact_match``, the exact right-hand sides;
* ``model``: the rest of the deviation model, ``blocks._defect_model``:
  the bound's tables and their grouping by power of r;
* ``bound``: every call of the deviation bound the model returns, from the
  scale search's bracket, its replay of the bisection on log r, and the
  bound at the chosen scale; one call bounds every kept monomial at once
  (``match_polynomial``);
* ``merge``: ``blocks._merge``, the exact merge of the matched weights
  Y_k = sum_j y_k^(j) r^-j over one denominator;
* ``block_coefficients``: ``blocks._block_coefficients``;
* ``combo_residual``: ``exact.combo_residual``, Phi included;
* ``other``: the rest of ``approximate``, the scale search's own steps
  among them.

``block_stage`` is the sum of conversion, exact_match, model, bound, merge
and block_coefficients.  Each stage is found by its dotted name
(STAGE_NAMES); the child lists under ``missing`` every stage whose name does
not exist in the tree it runs in, and ``tests/test_tools.py`` runs it on
this tree for a few targets, so a renamed stage fails there.

Each figure is ms per call, per eps level, from the run with the smallest
total; the timers add about a microsecond per wrapped call.  Like pipebench,
every call is timed together with ``workloads.reference_ms`` just before and
after it, and its stage times are scaled to a host on which that reference
computation takes ``REFERENCE_NOMINAL_MS``: ``levels`` holds the scaled
figures and ``raw_levels`` the measured ones.  Beside them, ``bound_calls``
counts the bound's calls per ``approximate`` call and ``cheb_certificates``
the Chebyshev degrees certified on the full grid per call (the calls of
``approximate._certified``, timed as ``certificate``); the
top-level ``bound_calls`` and ``cheb_certificates`` of each tree are their
totals over the TARGETS calls.  Every run also hashes ``combo_to_json``
and ``report.to_dict()`` of every call, so the file records whether both
trees produce the same output, and, untimed, compares each
``max_residual`` with (|Phi| + err) times the cancellation mass at x = -1
summed at 80 digits: ``residual_excess`` is the smallest and largest
max_residual / product - 1 over the calls, and ``phi_dps`` counts the
calls by the precision of the Phi they used.  Last, the script runs
``tools/compare_artifacts.py``'s CLI grid against PATH and records its
result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_artifacts import CASES, RUNS, compare, host, revision, run_child  # noqa: E402

sys.path.insert(0, str(ROOT / "pipebench"))
from workloads import REFERENCE_NOMINAL_MS  # noqa: E402

TARGETS = 60

# stage -> the dotted name of the function wrapped for it
STAGE_NAMES = {
    "cheb_fit": "approximate.cheb_fit",
    "certificate": "approximate._certified",
    "conversion": "approximate._matching_values",
    "exact_match": "blocks._exact_match",
    "model": "blocks._defect_model",
    "merge": "blocks._merge",
    "block_coefficients": "blocks._block_coefficients",
    "combo_residual": "exact.combo_residual",
}

SWEEP_CHILD = """
import hashlib, importlib, json, sys, time
sys.path.insert(0, "pipebench")
import mpmath
from mpmath import mpf
from workloads import REFERENCE_NOMINAL_MS, SWEEP_EPS, SWEEP_S, LibrarySweep, Record, reference_ms
from sharmonic import blocks, exact
approximate = importlib.import_module("sharmonic.approximate")
modules = {"approximate": approximate, "blocks": blocks, "exact": exact}

spent, counts = {}, {}

def timed(name, fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - start
            counts[name] = counts.get(name, 0) + 1
    return wrapper

def owner(dotted):
    # (object holding the attribute, attribute name), or None if any part is missing
    first, *rest = dotted.split(".")
    obj = modules[first]
    for part in rest[:-1]:
        obj = getattr(obj, part, None)
    return (obj, rest[-1]) if obj is not None and hasattr(obj, rest[-1]) else None

def model_with_timed_bound(*args, **kwargs):
    t, y, bound = model(*args, **kwargs)
    return t, y, timed("bound", bound)

def residual_excess(combo, value):
    # max_residual / ((|Phi| + err) * mass at x = -1, at 80 digits) - 1
    used = []
    def record(p, s, dps):
        used.append((dps, phi(p, s, dps)))
        return used[-1][1]
    exact.canonical_constant = record
    try:
        residual(combo, combo.interval[0])
    finally:
        exact.canonical_constant = phi
    (dps, (value_phi, err)), = used
    phi_dps[dps] = phi_dps.get(dps, 0) + 1
    with mpmath.workdps(80):
        sm, x = mpf(combo.s), mpf(combo.interval[0])
        mass = mpmath.fsum(abs(mpf(b.c)) * mpf(b.r) ** (2 * sm)
                           * (mpf(b.r) * x + mpf(b.t)) ** -sm for b in combo.blocks)
        return float(mpf(value) / ((abs(value_phi) + abs(err)) * mass) - 1)

phi, residual = exact.canonical_constant, exact.combo_residual
wrapped, missing = {}, []
for stage, name in json.loads(sys.argv[2]).items():
    if owner(name) is None:
        missing.append(stage)
        continue
    wrapped[stage] = name
    obj, attr = owner(name)
    fn = getattr(obj, attr)
    if stage == "model":
        model = timed("model", fn)
        setattr(obj, attr, model_with_timed_bound)
    else:
        setattr(obj, attr, timed(stage, fn))

sweep = LibrarySweep(1)
sweep.setup(Record())
levels = {eps: {"calls": 0, "counts": {}, "raw": {}, "scaled": {}} for eps in SWEEP_EPS}
digest = hashlib.sha256()
excess, phi_dps = [], {}
ops = sweep.operations()
before = reference_ms()
for _ in range(int(sys.argv[1])):
    target, eps = next(ops)
    spent.clear()
    counts.clear()
    start = time.perf_counter()
    combo, report = approximate.approximate(target, eps, SWEEP_S)
    spent["total"] = time.perf_counter() - start
    after = reference_ms()
    factor, before = REFERENCE_NOMINAL_MS / (0.5 * (before + after)), after
    digest.update(blocks.combo_to_json(combo).encode())
    digest.update(json.dumps(report.to_dict()).encode())
    excess.append(residual_excess(combo, report.max_residual))
    level = levels[eps]
    level["calls"] += 1
    for name, count in counts.items():
        level["counts"][name] = level["counts"].get(name, 0) + count
    for name, seconds in spent.items():
        level["raw"][name] = level["raw"].get(name, 0.0) + seconds
        level["scaled"][name] = level["scaled"].get(name, 0.0) + seconds * factor
    before = reference_ms()
print(json.dumps({"levels": {f"{eps:g}": level for eps, level in levels.items()},
                  "wrapped": wrapped, "missing": missing,
                  "residual_excess": [min(excess), max(excess)], "phi_dps": phi_dps,
                  "sha256": digest.hexdigest()}))
"""

COUNTS = {"bound_calls": "bound", "cheb_certificates": "certificate"}
STAGES = ("cheb_fit", "certificate", "conversion", "exact_match", "model", "bound", "merge",
          "block_coefficients", "combo_residual")
BLOCK_STAGE = ("conversion", "exact_match", "model", "bound", "merge", "block_coefficients")


def run_sweep_child(tree: Path, targets: int) -> dict:
    """The child's JSON from one fresh interpreter in tree: per eps level the
    calls and each stage's call counts, raw and scaled seconds; the name
    wrapped per stage and the stages whose name was not found."""
    return json.loads(run_child(tree, ["-c", SWEEP_CHILD, str(targets),
                                       json.dumps(STAGE_NAMES)]))


def _per_call(level: dict, spent: dict) -> dict:
    """ms per call of each stage, other and the block stage included."""
    per_call = {name: spent.get(name, 0.0) * 1e3 / level["calls"]
                for name in ("total", *STAGES)}
    # _exact_match runs inside the model, _certified inside cheb_fit
    per_call["model"] -= per_call["exact_match"]
    per_call["cheb_fit"] -= per_call["certificate"]
    per_call["other"] = per_call["total"] - sum(per_call[k] for k in STAGES)
    per_call["block_stage"] = sum(per_call[k] for k in BLOCK_STAGE)
    return {k: round(v, 3) for k, v in per_call.items()}


def sweep_split(tree: Path, targets: int = TARGETS) -> dict:
    """Scaled and raw ms per call of each stage per eps level, bound calls
    and full Chebyshev certificates per call, the mean scaled and raw
    totals, both counts over all calls, the residual's excess over its
    80-digit product, the stages not found and the output hash, from one
    fresh interpreter."""
    raw = run_sweep_child(tree, targets)
    split = {"levels": {}, "raw_levels": {}}
    for eps, level in raw["levels"].items():
        split["levels"][eps] = _per_call(level, level["scaled"])
        for key, name in COUNTS.items():
            split["levels"][eps][key] = level["counts"].get(name, 0) / level["calls"]
        split["raw_levels"][eps] = _per_call(level, level["raw"])
    for key, name in (("mean_total", "scaled"), ("raw_mean_total", "raw")):
        total = sum(level[name]["total"] for level in raw["levels"].values())
        split[key] = round(total * 1e3 / targets, 3)
    for key, name in COUNTS.items():
        split[key] = sum(level["counts"].get(name, 0) for level in raw["levels"].values())
    for key in ("residual_excess", "phi_dps", "missing", "sha256"):
        split[key] = raw[key]
    return split


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_sweep.json")
    opts = ap.parse_args()
    trees = {"parent": opts.parent.resolve(), "change": ROOT}

    best, hashes = dict.fromkeys(trees), {name: set() for name in trees}
    for _ in range(RUNS):
        for name, tree in trees.items():
            split = sweep_split(tree)
            hashes[name].add(split.pop("sha256"))
            if best[name] is None or split["mean_total"] < best[name]["mean_total"]:
                best[name] = split
            print(name, json.dumps(split), flush=True)

    differing = []
    for args in CASES:
        if compare(args, {"change": ROOT, "parent": trees["parent"]}) is not None:
            differing.append(" ".join(args))
    print(f"compare_artifacts: {len(CASES) - len(differing)} of {len(CASES)} identical",
          flush=True)

    result = {
        "command": "python3 tools/bench_sweep.py --parent PATH",
        "host": host(),
        "trees": {name: revision(tree) for name, tree in trees.items()},
        "targets": TARGETS,
        "runs": RUNS,
        "reference_nominal_ms": REFERENCE_NOMINAL_MS,
        "sweep_ms_per_call": best,
        "outputs_identical": len(hashes["parent"] | hashes["change"]) == 1,
        "compare_artifacts": {"cases": len(CASES), "identical": len(CASES) - len(differing),
                              "differing": differing},
    }
    opts.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
