"""Where the time of the evaluate workload's read path goes, per operation,
in this tree and in another checkout.

Usage, from the root of a checkout:

    python3 tools/bench_eval.py --parent PATH [--out BENCH_eval.json]

PATH is a second checkout to compare against (for example the parent
commit, made with ``git clone`` or ``git archive``).  Each of RUNS fresh
interpreters per tree, parent and change alternating, runs the set-up of
pipebench's evaluate workload (``pipebench/workloads.py``: three built
artifacts, the 3-block float combination) at s = 0.5 and then times, in
the order of the workload's rounds:

* ``load_ms``: ``combo_from_json`` of each artifact, the mean of LOADS;
* ``artifact_point_ms``: one round's read of each artifact, as the workload
  runs it: ``combo_from_json``, then ``combo_derivative`` of orders 0-2 at
  ``EVAL_ARTIFACT_POINTS`` seeded points of [-0.99, 0.99], the mean of
  LOADS rounds (the derived series comes from the warm group cache);
* ``first_point_ms`` and ``next_point_ms``: the first and the second
  ``combo_derivative`` of order 0 at x = 0.5 on a freshly loaded artifact
  (the load is not timed), the mean of LOADS loads; the groups' series are
  in the warm ``_group_taylor`` cache, so the difference is what a cache
  hit and the combination's own set-up cost;
* ``grid_eval_ms``: ``combo_derivative`` of orders 0-2 of each in-memory
  combination on the workload's 10001-point grid, the mean of GRID_REPS;
* ``float_point_ms``: one ``combo_derivative`` of the float 3-block
  combination at one point, per order, as ``fraclap`` calls it: order 0 on
  a one-element array (the operand's value at x) and orders 2 and 4 on a
  float (the direct route's Taylor model), the mean over POINTS seeded
  points of [-0.99, 0.99], repeated LOADS times;
* ``fraclap_ms``: ms per point of ``frac_laplacian_detailed`` (direct) and
  ``frac_laplacian_pv`` (pv) for each operand the workload evaluates
  (gauss, cosmix, atan and the float combination ``combo``), over POINTS
  seeded points of [-0.99, 0.99], after one untimed call per operand and
  route so that layouts built on first use are in place.

After each such interpreter, COLD_REPS more fresh interpreters per
artifact read the artifact that tree built from a file and time

* ``cold_load_ms``: its first ``combo_from_json`` plus orders 0-2 at the
  seeded points of the first round, so the derived series of every group
  is computed in extended precision (imports are not timed); the run keeps
  the fastest of the COLD_REPS, as one-shot timings on a shared host catch
  the odd stall.

Like pipebench, every timed block runs between two runs of
``workloads.reference_ms``, and its time is scaled to a host on which that
reference computation takes ``REFERENCE_NOMINAL_MS``.  ``median_ms`` holds
each tree's median over its RUNS interpreters (``fraclap_ms.sum`` adds up
the eight per-point figures), and ``per_run_ms`` every run's figures.
Every run hashes the repr of every value it returns (each
``FracLapDetail``, PV value, artifact text, point value and grid array,
and each loaded block's offset, scale and exact coefficient, as mpmath's
raw tuple where it has one), so ``outputs_identical`` says whether both
trees return the same bits.  Last, the script runs the ``fraclap`` cases of
``tools/compare_artifacts.py`` against PATH and records their result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from compare_artifacts import CASES, RUNS, compare, host, revision, run_child  # noqa: E402

sys.path.insert(0, str(ROOT / "pipebench"))
from workloads import REFERENCE_NOMINAL_MS  # noqa: E402

POINTS = 40
LOADS = 20
GRID_REPS = 10
COLD_REPS = 3

EVAL_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, "pipebench")
import numpy as np
from workloads import (EVAL_ARTIFACT_POINTS, EVAL_GRID, REFERENCE_NOMINAL_MS, Evaluate,
                       Record, bounded_operands, reference_ms)
from sharmonic import blocks, fraclap

points, loads, grid_reps = (int(a) for a in sys.argv[1:4])
evaluate = Evaluate(1)
evaluate.setup(Record())
digest = hashlib.sha256()

def scaled_ms(fn, n):
    # ms per repetition of fn, scaled by the reference around it
    before = reference_ms()
    start = time.perf_counter()
    for _ in range(n):
        fn()
    elapsed = (time.perf_counter() - start) * 1e3 / n
    after = reference_ms()
    return round(elapsed * REFERENCE_NOMINAL_MS / (0.5 * (before + after)), 4)

def first_and_next_ms(text, n):
    # mean ms of the first and the second point read of n fresh loads, scaled
    spent = [0.0, 0.0]
    before = reference_ms()
    for _ in range(n):
        loaded = blocks.combo_from_json(text)
        for i in range(2):
            start = time.perf_counter()
            digest.update(repr(blocks.combo_derivative(loaded, 0.5, 0)).encode())
            spent[i] += time.perf_counter() - start
    factor = REFERENCE_NOMINAL_MS / (0.5 * (before + reference_ms()))
    return [round(t * 1e3 / n * factor, 4) for t in spent]

load_ms, artifact_point_ms, grid_eval_ms = {}, {}, {}
first_point_ms, next_point_ms = {}, {}
grid = np.linspace(-1.0, 1.0, EVAL_GRID)
rounds = np.random.default_rng(0).uniform(-0.99, 0.99, (loads, EVAL_ARTIFACT_POINTS))
for spec, combo, text in evaluate.artifacts:
    digest.update(text.encode())
    load_ms[spec] = scaled_ms(lambda: blocks.combo_from_json(text), loads)
    # each loaded coefficient by its exact value (mpmath's raw tuple for an
    # extended-precision one), whatever class holds it
    digest.update(repr([(b.t, getattr(b.c, "_mpf_", b.c), b.r)
                        for b in blocks.combo_from_json(text).blocks]).encode())
    it, values = iter(rounds), []

    def read_round():
        loaded = blocks.combo_from_json(text)
        values.append([blocks.combo_derivative(loaded, float(x), k)
                       for x in next(it) for k in range(3)])

    artifact_point_ms[spec] = scaled_ms(read_round, loads)
    digest.update(repr(values).encode())
    first_point_ms[spec], next_point_ms[spec] = first_and_next_ms(text, loads)
    grid_eval_ms[spec] = scaled_ms(
        lambda: [blocks.combo_derivative(combo, grid, k) for k in range(3)], grid_reps)
    for k in range(3):
        digest.update(blocks.combo_derivative(combo, grid, k).tobytes())
xs = np.random.default_rng(0).uniform(-0.99, 0.99, points)
float_point_ms = {}
for k in (0, 2, 4):
    args = [np.array([x]) if k == 0 else float(x) for x in xs] * loads
    it, values = iter(args), []
    float_point_ms[str(k)] = scaled_ms(
        lambda: values.append(blocks.combo_derivative(evaluate.block_operand, next(it), k)),
        len(args))
    digest.update(repr([np.asarray(v).tolist() for v in values]).encode())
operands = {**bounded_operands(), "combo": evaluate.block_operand}
routes = {"direct": fraclap.frac_laplacian_detailed, "pv": fraclap.frac_laplacian_pv}
fraclap_ms = {}
for name, operand in operands.items():
    for route, fn in routes.items():
        fn(operand, 0.0, evaluate.params)
        it = iter(xs)
        out = []
        fraclap_ms[f"{name}_{route}"] = scaled_ms(
            lambda: out.append(fn(operand, float(next(it)), evaluate.params)), points)
        digest.update(repr(out).encode())
print(json.dumps({"fraclap_ms": fraclap_ms, "load_ms": load_ms,
                  "artifact_point_ms": artifact_point_ms, "first_point_ms": first_point_ms,
                  "next_point_ms": next_point_ms, "grid_eval_ms": grid_eval_ms,
                  "float_point_ms": float_point_ms, "sha256": digest.hexdigest(),
                  "texts": {spec: text for spec, _, text in evaluate.artifacts}}))
"""

COLD_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, "pipebench")
import numpy as np
from workloads import EVAL_ARTIFACT_POINTS, REFERENCE_NOMINAL_MS, reference_ms
from sharmonic import blocks

text = open(sys.argv[1]).read()
xs = np.random.default_rng(0).uniform(-0.99, 0.99, EVAL_ARTIFACT_POINTS)
before = reference_ms()
start = time.perf_counter()
loaded = blocks.combo_from_json(text)
values = [blocks.combo_derivative(loaded, float(x), k) for x in xs for k in range(3)]
elapsed = (time.perf_counter() - start) * 1e3
after = reference_ms()
print(json.dumps({"ms": round(elapsed * REFERENCE_NOMINAL_MS / (0.5 * (before + after)), 4),
                  "sha256": hashlib.sha256(repr(values).encode()).hexdigest()}))
"""

GROUPS = ("fraclap_ms", "load_ms", "artifact_point_ms", "first_point_ms", "next_point_ms",
          "grid_eval_ms", "float_point_ms", "cold_load_ms")


def eval_split(tree: Path) -> dict:
    """Scaled ms per operation of each group and the output hash, from one
    fresh interpreter, then the fastest cold read of each artifact it
    built over COLD_REPS fresh interpreters; the hash covers every value."""
    out = run_child(tree, ["-c", EVAL_CHILD, str(POINTS), str(LOADS), str(GRID_REPS)])
    split = json.loads(out)
    digest = hashlib.sha256(split.pop("sha256").encode())
    split["cold_load_ms"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec, text in split.pop("texts").items():
            path = Path(tmp) / f"{spec}.json"
            path.write_text(text)
            colds = [json.loads(run_child(tree, ["-c", COLD_CHILD, str(path)]))
                     for _ in range(COLD_REPS)]
            split["cold_load_ms"][spec] = min(cold["ms"] for cold in colds)
            for cold in colds:
                digest.update(cold["sha256"].encode())
    split["sha256"] = digest.hexdigest()
    return split


def _medians(runs: list[dict]) -> dict:
    figures = {group: {key: round(statistics.median(run[group][key] for run in runs), 4)
                       for key in runs[0][group]} for group in GROUPS}
    figures["fraclap_ms"]["sum"] = round(sum(figures["fraclap_ms"].values()), 4)
    return figures


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_eval.json")
    opts = ap.parse_args()
    trees = {"parent": opts.parent.resolve(), "change": ROOT}

    runs, hashes = {name: [] for name in trees}, {name: set() for name in trees}
    for _ in range(RUNS):
        for name, tree in trees.items():
            split = eval_split(tree)
            hashes[name].add(split.pop("sha256"))
            runs[name].append(split)
            print(name, json.dumps(split), flush=True)

    cases = [args for args in CASES if args[0] == "fraclap"]
    differing = [" ".join(args) for args in cases
                 if compare(args, {"change": ROOT, "parent": trees["parent"]}) is not None]
    print(f"compare_artifacts fraclap cases: {len(cases) - len(differing)} of "
          f"{len(cases)} identical", flush=True)

    result = {
        "command": "python3 tools/bench_eval.py --parent PATH",
        "host": host(),
        "trees": {name: revision(tree) for name, tree in trees.items()},
        "s": 0.5,
        "points": POINTS,
        "runs": RUNS,
        "reference_nominal_ms": REFERENCE_NOMINAL_MS,
        "median_ms": {name: _medians(tree_runs) for name, tree_runs in runs.items()},
        "outputs_identical": len(hashes["parent"] | hashes["change"]) == 1,
        "compare_artifacts_fraclap": {"cases": len(cases),
                                      "identical": len(cases) - len(differing),
                                      "differing": differing},
        "per_run_ms": runs,
    }
    opts.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
