"""Cold cost of the canonical constant Phi(s, s), and where the time of
each CLI run of the benchmark mix goes after import.

Usage, from the root of a checkout:

    python3 tools/bench_phi.py --parent PATH [--out BENCH_phi.json]

PATH is a second checkout to compare against (for example the parent
commit, made with ``git clone`` or ``git archive``).  Every figure is
measured for both trees, alternating between them, each run in a fresh
interpreter with ``PYTHONPATH`` set to the tree's ``src``:

* ``phi_cold_ms``: one call of ``canonical_constant(s, s, dps)`` right
  after import, the fastest of RUNS processes;
* ``cli_after_import_ms``: ``sharmonic.cli.main`` on each distinct
  invocation of the cli-tight mix (``pipebench/workloads.py``), run under
  the tree's ``pipebench/traced_cli.py`` and split, from its span
  snapshot, into Phi, the lazy ``numpy.ma`` import (from ``-X
  importtime``), the ``build_sharmonic`` stage without that import, the
  residual's self time, and the rest; the run with the smallest total of
  RUNS is kept.  The tracer's own spans add a little to every figure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
S_VALUES = (0.1, 0.5, 0.9)
DPS_VALUES = (40, 80, 120, 340)
RUNS = 5

PHI_CHILD = """
import sys, time
from sharmonic import exact
start = time.perf_counter()
exact.canonical_constant(float(sys.argv[1]), float(sys.argv[1]), int(sys.argv[2]))
print((time.perf_counter() - start) * 1e3)
"""

def run_child(tree: Path, cmd: list[str], importtime: bool = False):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + cmd
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                          cwd=tree)
    return proc.stdout, proc.stderr


def numpy_ma_ms(stderr: str) -> float:
    """Cumulative import time of numpy.ma in -X importtime output, 0 if absent."""
    for line in stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 \
                and fields[2].strip() == "numpy.ma":
            return int(fields[1]) / 1e3
    return 0.0


def cli_split(tree: Path, args: tuple[str, ...]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        _, err = run_child(tree, [str(tree / "pipebench" / "traced_cli.py"), str(out),
                                  *args, "--out-json", str(Path(tmp) / "a.json")],
                           importtime=True)
        spans = json.loads(out.read_text())["trace"]["stats"]["timed"]
    # [calls, inclusive s, self s] per span; Phi runs inside the residual
    inclusive = {name: spans.get(name, (0, 0.0, 0.0))[1] * 1e3 for name in
                 ("cli.main", "exact.canonical_constant", "approximate.build_sharmonic")}
    ma = numpy_ma_ms(err)
    split = {"total": inclusive["cli.main"], "phi": inclusive["exact.canonical_constant"],
             "numpy_ma": ma, "build": inclusive["approximate.build_sharmonic"] - ma,
             "residual": spans.get("exact.combo_residual", (0, 0.0, 0.0))[2] * 1e3}
    split["other"] = split["total"] - sum(split[k] for k in
                                          ("phi", "numpy_ma", "build", "residual"))
    return {k: round(v, 2) for k, v in split.items()}


def host() -> dict:
    return {"cores": os.cpu_count(), "numba": importlib.util.find_spec("numba") is not None,
            "python": platform.python_version(), "machine": platform.machine()}


def revision(tree: Path) -> str:
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=tree,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                           capture_output=True, text=True).stdout.strip()
    return head + (" with uncommitted src changes" if dirty else "")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_phi.json")
    opts = ap.parse_args()
    trees = {"parent": opts.parent.resolve(), "change": ROOT}
    sys.path.insert(0, str(ROOT / "pipebench"))
    from workloads import CLI_MIX

    phi = []
    for s in S_VALUES:
        for dps in DPS_VALUES:
            best = {name: float("inf") for name in trees}
            for _ in range(RUNS):
                for name, tree in trees.items():
                    out, _ = run_child(tree, ["-c", PHI_CHILD, str(s), str(dps)])
                    best[name] = min(best[name], float(out))
            row = {"s": s, "dps": dps, **{f"{k}_ms": round(v, 2) for k, v in best.items()}}
            row["speedup"] = round(best["parent"] / best["change"], 1)
            phi.append(row)
            print(json.dumps(row), flush=True)

    cli = []
    for args in dict.fromkeys(CLI_MIX):
        row = {"args": " ".join(args), **dict.fromkeys(trees)}
        for _ in range(RUNS):
            for name, tree in trees.items():
                split = cli_split(tree, args)
                if row[name] is None or split["total"] < row[name]["total"]:
                    row[name] = split
        cli.append(row)
        print(json.dumps(row), flush=True)

    result = {
        "command": "python3 tools/bench_phi.py --parent PATH",
        "host": host(),
        "trees": {name: revision(tree) for name, tree in trees.items()},
        "phi_cold_ms": phi,
        "cli_after_import_ms": cli,
    }
    opts.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
