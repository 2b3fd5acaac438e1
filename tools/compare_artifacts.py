"""Check that a fixed grid of CLI runs writes the same artifacts in this tree
as in another checkout.

Usage, from the root of a checkout:

    python3 tools/compare_artifacts.py --parent PATH

PATH is a second checkout (for example the parent commit, made with ``git
clone`` or ``git archive``).  Every case of CASES runs once per tree, each
in a fresh interpreter with ``PYTHONPATH`` set to the tree's ``src``,
writing ``--out-json`` and ``--out-csv``.  A ``csv:{grid}`` target reads
the grid CSV fixture GRID_CSV (exp(-x^2) and its two derivatives on 401
points of [-2, 2]), which the script writes into its temporary directory;
both trees read the same path.  For each case the script prints
whether both artifacts are byte-identical; where one differs it prints every
differing JSON key and CSV column with its largest relative difference and,
after "abs", its largest absolute difference (both inf for a key or column
present in one tree only; two rounding-level zeros of opposite sign read as
a relative change near 1 but show their size in the absolute one), and,
for an artifact with a certificate (``report.epsilon_total``), each tree's
certificate ratio epsilon_total / epsilon_requested and max_residual, the
parent's first.
It exits 1 if any case differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bench_phi import run_child  # noqa: E402

CASES = tuple(
    ("approximate", "--target", target, "--epsilon", eps, "--s", s)
    for target, eps in (("x2", "0.0625"), ("sin", "1e-6"), ("exp", "1e-8"))
    for s in ("0.1", "0.5", "0.9")
) + (
    ("approximate", "--target", "sin", "--epsilon", "1e-4", "--s", "0.05"),
    ("approximate", "--target", "sin", "--epsilon", "1e-4", "--s", "0.95"),
    # sin's sampled certificate at 1e-10 is not monotone in the degree (0.36
    # of the budget at 13, 2.08 at 15): the Chebyshev degree screen must keep 13
    ("approximate", "--target", "sin", "--epsilon", "1e-10", "--s", "0.5"),
    ("approximate", "--target", "exp", "--epsilon", "1e-10", "--s", "0.5"),
    ("demo", "harnack", "--s", "0.5"),
    ("demo", "harnack", "--s", "0.3"),
    ("demo", "logistic", "--sigma", "sin", "--mu", "exp"),
    ("demo", "logistic"),
    ("fraclap", "--target", "sin"),
    ("fraclap", "--target", "block:t=1"),
    ("fraclap", "--target", "sin", "--method", "pv"),
    ("fraclap", "--target", "block:t=1", "--method", "pv"),
    # points within 1e-4..1e-2 of the kink at -1: its split points reach down
    # to the start of the mid field, which shrinks to half the gap
    ("fraclap", "--target", "block:t=1", "--xmin", "-0.9999", "--xmax", "-0.99", "--grid", "11"),
    ("fraclap", "--target", "block:t=1", "--xmin", "-0.9999", "--xmax", "-0.99", "--grid", "11",
     "--method", "pv"),
    ("approximate", "--target", "csv:{grid}", "--epsilon", "1e-2", "--s", "0.5"),
    ("fraclap", "--target", "csv:{grid}"),
)


def _grid_csv() -> str:
    """x, value, deriv1, deriv2 of exp(-x^2) on 401 uniform points of [-2, 2]."""
    rows = ["x,value,deriv1,deriv2"]
    for i in range(401):
        x = -2.0 + 4.0 * i / 400
        g = math.exp(-x * x)
        rows.append(f"{x!r},{g!r},{-2.0 * x * g!r},{(4.0 * x * x - 2.0) * g!r}")
    return "\n".join(rows) + "\n"


GRID_CSV = _grid_csv()


def _difference(a: str, b: str) -> tuple[float, float]:
    """Relative and absolute difference of two numbers written as text, exact
    up to the final rounding; both inf when either is not a finite number."""
    try:
        x, y = Fraction(a), Fraction(b)
    except (TypeError, ValueError):
        return float("inf"), float("inf")
    return (float(abs(x - y) / max(abs(x), abs(y))) if x != y else 0.0), float(abs(x - y))


def _json_leaves(text: str):
    """(key path, value as text) of every leaf of a JSON document, in order."""
    return _leaves(json.loads(text, parse_float=str, parse_int=str))


def _leaves(node, path: str = ""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _csv_cells(text: str):
    """(column name, value as text) of every cell, row by row."""
    rows = list(csv.reader(text.splitlines()))
    for row in rows[1:]:
        yield from zip(rows[0], row)


def _differences(ours, theirs) -> dict[str, tuple[float, float]]:
    """Largest relative and largest absolute difference of each key whose
    values differ between two (key, value) sequences, in order of first
    appearance; a key present on one side only, or with a different number
    of values, counts as inf."""
    sides = ({}, {})
    for side, items in zip(sides, (ours, theirs)):
        for key, value in items:
            side.setdefault(key, []).append(value)
    out = {}
    for key in {**sides[0], **sides[1]}:
        a, b = sides[0].get(key), sides[1].get(key)
        if a is None or b is None or len(a) != len(b):
            out[key] = float("inf"), float("inf")
        elif a != b:
            rel, absolute = zip(*(_difference(x, y) for x, y in zip(a, b)))
            out[key] = max(rel), max(absolute)
    return out


def _certificate(text: str) -> str | None:
    """Certificate ratio and max_residual of a report with epsilon_total,
    else None."""
    report = json.loads(text).get("report", {})
    if "epsilon_total" not in report:
        return None
    return (f"epsilon_total/epsilon_requested "
            f"{report['epsilon_total'] / report['epsilon_requested']:.6g} "
            f"max_residual {report['max_residual']:.6g}")


def compare(args: tuple[str, ...], trees: dict[str, Path]) -> str | None:
    """None when both artifacts of the case are identical, else a summary
    (see summarize)."""
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        grid = Path(tmp) / "grid.csv"
        grid.write_text(GRID_CSV, encoding="ascii")
        args = tuple(arg.replace("{grid}", str(grid)) for arg in args)
        for name, tree in trees.items():
            out = Path(tmp) / name
            run_child(tree, ["-m", "sharmonic", *args, "--out-json", f"{out}.json",
                             "--out-csv", f"{out}.csv"])
            texts[name] = (Path(f"{out}.json").read_text(), Path(f"{out}.csv").read_text())
    return summarize(texts)


def summarize(texts: dict[str, tuple[str, str]]) -> str | None:
    """None when both trees' (JSON, CSV) texts are identical, else every
    differing key and column with its largest relative and absolute
    difference, then each tree's certificate, the parent's first."""
    (json_a, csv_a), (json_b, csv_b) = texts.values()
    notes = []
    for kind, diffs in (("JSON key", _differences(_json_leaves(json_a), _json_leaves(json_b))),
                        ("CSV column", _differences(_csv_cells(csv_a), _csv_cells(csv_b)))):
        notes += [f"{kind} {key} {rel:.3e} abs {absolute:.3e}"
                  for key, (rel, absolute) in diffs.items()]
    if not notes and (json_a, csv_a) != (json_b, csv_b):
        notes.append("same values, different text")
    if notes:
        names = sorted(texts, key=lambda name: name != "parent")
        notes += [f"{name} {cert}" for name in names
                  if (cert := _certificate(texts[name][0])) is not None]
    return "; ".join(notes) or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    opts = ap.parse_args()
    trees = {"change": ROOT, "parent": opts.parent.resolve()}
    differing = 0
    for args in CASES:
        summary = compare(args, trees)
        differing += summary is not None
        print(f"{'identical' if summary is None else 'DIFFERS':9}  {' '.join(args)}"
              + (f": {summary}" if summary else ""), flush=True)
    print(f"{len(CASES) - differing} of {len(CASES)} cases identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
