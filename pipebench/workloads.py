"""Seeded inputs, operations and correctness gates of the three workloads.

Every workload is a closed loop with one client: the next operation is
issued only after the previous one returned.  Inputs come only from the
seed; the program sees nothing but the generated inputs.

* cli-tight: whole rounds of a fixed mix of ``python -m sharmonic``
  invocations, in a seeded order.  Each invocation pays interpreter
  start-up, import and a cold Phi(s, s).
* library-sweep: one long-lived process calls ``approximate`` on seeded
  smooth targets.  An untimed warm-up on targets from a different seed
  stream fills only the caches keyed on (s, precision), so memoising a
  target cannot fake a gain.
* evaluate: the read path.  Artifacts are built in set-up; the timed
  rounds load and evaluate them, evaluate in-memory combinations on a
  dense grid, and run the operator quadrature on inputs it accepts.  The
  inputs it currently refuses (the dense ``sin`` grid and a pipeline-built
  combination) run once per run after the rounds, as a known-defect probe
  whose refusals are reported apart from the rounds' failed operations.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".pipebench_tmp"


def import_sharmonic(module: str = "sharmonic") -> float:
    """Import a module of this checkout's ``src`` package; returns the time."""
    if not (SRC / "sharmonic" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no sharmonic sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    importlib.import_module(module)
    elapsed = time.perf_counter() - start
    import sharmonic
    if Path(sharmonic.__file__).resolve().parent != (SRC / "sharmonic").resolve():
        raise SystemExit(f"pipebench: imported sharmonic from {sharmonic.__file__}, "
                         f"not from {SRC}")
    return elapsed


def module(name: str):
    """A sharmonic submodule, looked up at call time so spans see the calls.

    ``import sharmonic.approximate as m`` would bind the function that the
    package exports under that name, not the module.
    """
    return importlib.import_module(f"sharmonic.{name}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


# Host speed on a shared machine drifts by tens of percent over minutes, for
# CPU time as well as wall time, so every operation and every set-up is
# timed together with a fixed reference computation run just before and
# after it.  Reported times are scaled to a host on which the reference
# takes REFERENCE_NOMINAL_MS; raw times are printed next to them.
REFERENCE_NOMINAL_MS = 2.5


def _reference_work() -> None:
    import mpmath
    import numpy as np

    x = np.linspace(-1.0, 1.0, 10001)
    with mpmath.workdps(300):
        acc = mpmath.mpf(0)
        base = mpmath.mpf(2) / 3
        for k in range(1, 12):
            acc += (base + k) ** (mpmath.mpf(k) / 7)
    for t in (2.0, 2.5, 3.0):
        np.sum(np.abs(x + t) ** 0.37)
    total = 0
    for i in range(10000):
        total += i * i % 7


def reference_ms() -> float:
    """Fastest of three runs of the reference computation, in ms: mpmath
    arithmetic at 300 digits, numpy power sums and a pure-Python loop,
    like the package's own mix.  It never touches sharmonic.  Taking the
    fastest run discards the cold-cache first run after an idle wait."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def closed_loop(run_op, ops, rec: "Record", kind=lambda op: 0) -> float:
    """Issue each operation after the previous one returned; `run_op`
    returns the operation's time in seconds, or None when it failed, and
    `kind` names the part of the workload's mix the operation belongs to.
    Returns the wall time of the loop."""
    start = time.perf_counter()
    before = reference_ms()
    for op in ops:
        elapsed = run_op(op)
        after = reference_ms()
        if elapsed is not None:
            rec.ops.append([elapsed * 1e3, 0.5 * (before + after), kind(op)])
        before = after
    return time.perf_counter() - start


def until(deadline: float, ops):
    """The operations of `ops` started before `deadline` (perf_counter)."""
    for op in ops:
        if time.perf_counter() >= deadline:
            return
        yield op


class Record:
    """Latency samples, operation counts and gate outcomes of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.refused: dict[str, int] = {}
        self.gates: dict[str, list] = {}  # name -> [checks, failures, first failure]
        self.notes: dict[str, float] = {}
        self.ops: list[list] = []  # [op ms, mean reference ms around it, kind]
        self.known: dict[str, list[int]] = {}  # probe kind -> [attempted, refused]

    def sample(self, name: str, seconds: float) -> None:
        """Latency sample in the unit its name ends with (_s or _ms)."""
        self.samples.setdefault(name, []).append(
            seconds * 1e3 if name.endswith("_ms") else seconds)

    def refuse(self, kind: str) -> None:
        self.failed += 1
        self.refused[kind] = self.refused.get(kind, 0) + 1

    def probe(self, kind: str, refused: bool) -> None:
        """An input of the known-defect probe; kept out of attempted/failed."""
        entry = self.known.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += int(refused)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        entry = self.gates.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            entry[2] = entry[2] or detail

    def note_max(self, name: str, value: float) -> None:
        self.notes[name] = max(self.notes.get(name, value), value)

    def to_dict(self) -> dict:
        return {"samples": self.samples, "attempted": self.attempted,
                "failed": self.failed, "refused": self.refused,
                "gates": self.gates, "notes": self.notes, "ops": self.ops,
                "known": self.known}


def check_report(rec: Record, report: dict, label: str) -> None:
    """Gate on an approximation report: budget respected, finite residual."""
    total, requested = report.get("epsilon_total"), report.get("epsilon_requested")
    rec.gate("approximate_within_budget",
             total is not None and requested is not None and total <= requested,
             f"{label}: epsilon_total {total} > epsilon_requested {requested}")
    residual = report.get("max_residual")
    rec.gate("approximate_finite_residual",
             residual is not None and math.isfinite(residual),
             f"{label}: max_residual {residual}")


# ---------------------------------------------------------------------------
# library-sweep


SWEEP_S = 0.5
SWEEP_EPS = (1e-3, 1e-4, 1e-5)
SWEEP_FREQS = (0.5, 1.0, 1.5)
SWEEP_TRACE_OPS = 6


def sweep_target(rng: random.Random, label: str):
    """Sum of three sines plus an exponential, with analytic derivatives."""
    import numpy as np
    from sharmonic import Target

    amp = [rng.uniform(0.3, 1.0) for _ in SWEEP_FREQS]
    phase = [rng.uniform(0.0, 2.0 * math.pi) for _ in SWEEP_FREQS]
    b = rng.uniform(0.2, 0.5)
    c = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
    terms = list(zip(amp, SWEEP_FREQS, phase))

    def deriv(order):
        def f(z):
            z = np.asarray(z, dtype=float)
            out = b * c**order * np.exp(c * z)
            for a, w, p in terms:
                out = out + a * w**order * np.sin(w * z + p + 0.5 * math.pi * order)
            return out
        return f

    return Target(label, deriv(0), deriv(1), deriv(2))


class LibrarySweep:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rec: Record) -> None:
        # the same warm-up on every seed keeps set-up work fixed
        warm = random.Random("library-sweep:warmup")
        for eps in SWEEP_EPS:
            target = sweep_target(warm, f"warmup-{eps:g}")
            _, report = module("approximate").approximate(target, eps, SWEEP_S)
            check_report(rec, report.to_dict(), target.name)

    def operations(self):
        rng = random.Random(f"library-sweep:{self.seed}")
        i = 0
        while True:
            eps = SWEEP_EPS[i % len(SWEEP_EPS)]
            yield sweep_target(rng, f"sweep-{i}"), eps
            i += 1

    @staticmethod
    def kind(op) -> float:
        return op[1]

    def run(self, op, rec: Record, tracer=None) -> float | None:
        from sharmonic.errors import SharmonicError

        target, eps = op
        rec.attempted += 1
        start = time.perf_counter()
        try:
            _, report = module("approximate").approximate(target, eps, SWEEP_S)
        except SharmonicError:
            rec.refuse("approximate")
            return None
        elapsed = time.perf_counter() - start
        rec.sample("approximate_s", elapsed)
        check_report(rec, report.to_dict(), target.name)
        return elapsed


# ---------------------------------------------------------------------------
# evaluate


EVAL_S = 0.5
EVAL_ARTIFACTS = (("x2", 1.0 / 16.0), ("sin", 1e-6), ("exp", 1e-8))
EVAL_ARTIFACT_POINTS = 2
EVAL_GRID = 10001
EVAL_FRACLAP_POINTS = 2
SIN_GRID = 2001
EVAL_TRACE_ROUNDS = 3
LOADED_RTOL = 1e-12
GAUSS_TOL = 1e-9
# The mid field's log-spaced panels do not resolve oscillation far out
# (y ~ 1e3..1e4), and neither route's tail half-width covers that error;
# for cos(x) + 0.5 sin(3x) at s = 0.5 it reaches 9e-5 * (1 + |value|)
# beyond the half-width.
DIRECT_PV_RTOL = 5e-4


class CountingOperand:
    """The benchmark's own operand callable, counting the points evaluated."""

    def __init__(self, f, tracer):
        self.f = f
        self.tracer = tracer

    def __call__(self, z):
        self.tracer.add("fraclap.f_evals", int(getattr(z, "size", 1)))
        return self.f(z)


def bounded_operands():
    import numpy as np

    return {
        "gauss": lambda z: np.exp(-np.asarray(z, dtype=float) ** 2),
        "cosmix": lambda z: np.cos(z) + 0.5 * np.sin(3.0 * np.asarray(z, dtype=float)),
        "atan": np.arctan,
    }


class Evaluate:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, rec: Record) -> None:
        import numpy as np

        approx_mod, blocks, fraclap = module("approximate"), module("blocks"), module("fraclap")
        self.artifacts = []
        for spec, eps in EVAL_ARTIFACTS:
            target = approx_mod.target_from_spec(spec)
            combo, report = approx_mod.approximate(target, eps, EVAL_S)
            check_report(rec, report.to_dict(), spec)
            self.artifacts.append((spec, combo, blocks.combo_to_json(combo)))
        self.block_operand = blocks.SHCombo(
            EVAL_S, (blocks.SHBlock(2.0, 1.0), blocks.SHBlock(2.5, -0.7),
                     blocks.SHBlock(3.0, 0.3)))
        self.sin_grid = np.linspace(-0.99, 0.99, SIN_GRID)
        self.params = fraclap.FracParams(EVAL_S)
        gauss = fraclap.frac_laplacian_detailed(bounded_operands()["gauss"], 0.0, self.params)
        err = abs(gauss.value - 2.0 * math.sqrt(math.pi))
        rec.gate("gaussian_2sqrtpi", err <= gauss.tail_halfwidth + GAUSS_TOL,
                 f"|value - 2 sqrt(pi)| = {err:.3e} > tail_halfwidth "
                 f"{gauss.tail_halfwidth:.3e} + {GAUSS_TOL:g}")

    def operations(self):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        while True:
            yield {
                "artifact_x": rng.uniform(-0.99, 0.99, (len(EVAL_ARTIFACTS),
                                                        EVAL_ARTIFACT_POINTS)),
                "grid_ends": (-1.0 + rng.uniform(0.0, 0.01), 1.0 - rng.uniform(0.0, 0.01)),
                "fraclap_x": rng.uniform(-0.99, 0.99, EVAL_FRACLAP_POINTS),
            }

    @staticmethod
    def kind(op) -> int:
        return 0

    def _fraclap(self, rec, kind, fn, operand, x):
        from sharmonic.errors import SharmonicError

        rec.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(operand, float(x), self.params)
        except SharmonicError:
            rec.refuse(kind)
            return None
        rec.sample("fraclap_pv_point_ms" if kind.endswith("pv") else "fraclap_point_ms",
                   time.perf_counter() - start)
        return out

    def run(self, op, rec: Record, tracer=None) -> float:
        import numpy as np
        from sharmonic.errors import SharmonicError

        blocks, fraclap = module("blocks"), module("fraclap")
        round_start = time.perf_counter()
        # loaded artifacts, orders 0-2 at seeded points
        for (spec, combo, text), xs in zip(self.artifacts, op["artifact_x"]):
            rec.attempted += 1
            start = time.perf_counter()
            loaded = blocks.combo_from_json(text)
            rec.sample("load_ms", time.perf_counter() - start)
            for x in xs:
                rec.attempted += 1
                start = time.perf_counter()
                try:
                    got = [blocks.combo_derivative(loaded, float(x), k) for k in range(3)]
                except SharmonicError:
                    rec.refuse("artifact_point")
                    continue
                rec.sample("artifact_point_ms", time.perf_counter() - start)
                want = [blocks.combo_derivative(combo, float(x), k) for k in range(3)]
                worst = max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, want))
                rec.gate("loaded_matches_memory", worst <= LOADED_RTOL,
                         f"{spec} at x={x!r}: relative deviation {worst:.3e}")
        # in-memory combinations on a dense grid
        grid = np.linspace(*op["grid_ends"], EVAL_GRID)
        for spec, combo, _ in self.artifacts:
            rec.attempted += 1
            start = time.perf_counter()
            for k in range(3):
                blocks.combo_derivative(combo, grid, k)
            rec.sample("grid_eval_ms", time.perf_counter() - start)
        # operator quadrature on bounded smooth operands and a float block combo
        for name, f in bounded_operands().items():
            operand = CountingOperand(f, tracer) if tracer is not None else f
            for x in op["fraclap_x"]:
                d = self._fraclap(rec, "fraclap", fraclap.frac_laplacian_detailed, operand, x)
                p = self._fraclap(rec, "fraclap_pv", fraclap.frac_laplacian_pv, operand, x)
                if tracer is not None:
                    tracer.add("fraclap.callable_points", 2)
                if d is not None and p is not None:
                    excess = (abs(d.value - p) - d.tail_halfwidth) / (1.0 + abs(d.value))
                    rec.note_max("direct_pv_excess", excess)
                    rec.gate("direct_pv_agree", excess <= DIRECT_PV_RTOL,
                             f"{name} at x={x!r}: |direct - pv| exceeds the tail "
                             f"half-width by {excess:.3e} * (1 + |value|)")
        for x in op["fraclap_x"]:
            d = self._fraclap(rec, "fraclap", fraclap.frac_laplacian_detailed,
                              self.block_operand, x)
            self._fraclap(rec, "fraclap_pv", fraclap.frac_laplacian_pv, self.block_operand, x)
            if d is not None:
                rec.gate("block_annihilated", abs(d.value) <= d.tail_halfwidth,
                         f"x={x!r}: |value| {abs(d.value):.3e} > tail_halfwidth "
                         f"{d.tail_halfwidth:.3e}")
        return time.perf_counter() - round_start

    def probe(self, rec: Record, tracer=None) -> None:
        """Inputs the operator currently refuses (ROADMAP item 2): the whole
        dense sin grid and one point with a pipeline-built (mp) combination
        as the operand.  Refusals are counted with Record.probe, so they show
        in the report without making the rounds' operations fail."""
        import numpy as np
        from sharmonic.errors import SharmonicError

        fraclap = module("fraclap")
        sin = CountingOperand(np.sin, tracer) if tracer is not None else np.sin
        cases = [("fraclap_sin", sin, x) for x in self.sin_grid]
        cases.append(("fraclap_mp_combo", self.artifacts[0][1], 0.3))
        for kind, operand, x in cases:
            try:
                fraclap.frac_laplacian_detailed(operand, float(x), self.params)
                refused = False
            except SharmonicError:
                refused = True
            rec.probe(kind, refused)
        if tracer is not None:
            tracer.add("fraclap.callable_points", SIN_GRID)


# ---------------------------------------------------------------------------
# cli-tight


CLI_MIX = (
    ("approximate", "--target", "sin", "--epsilon", "1e-6", "--s", "0.1"),
    ("approximate", "--target", "sin", "--epsilon", "1e-6", "--s", "0.5"),
    ("approximate", "--target", "sin", "--epsilon", "1e-6", "--s", "0.9"),
    ("approximate", "--target", "exp", "--epsilon", "1e-8", "--s", "0.5"),
    ("approximate", "--target", "x2", "--epsilon", "0.0625", "--s", "0.5"),
    ("approximate", "--target", "x2", "--epsilon", "0.0625", "--s", "0.5"),
    ("demo", "harnack"),
    ("demo", "logistic", "--sigma", "sin", "--mu", "exp"),
)
CLI_TIMEOUT_S = 120


def cli_round(seed: int, round_index: int) -> list[int]:
    """Indices into CLI_MIX in the seeded order of one round."""
    order = list(range(len(CLI_MIX)))
    random.Random(f"cli-tight:{seed}:{round_index}").shuffle(order)
    return order


def cli_ops(seed: int, deadline: float):
    """(index in CLI_MIX, arguments) of a first whole round, so every part
    of the mix is sampled, then of further rounds while operations start
    before `deadline`."""
    r = 0
    while True:
        for i in cli_round(seed, r):
            if r > 0 and time.perf_counter() >= deadline:
                return
            yield i, CLI_MIX[i]
        r += 1


def run_cli(args: tuple[str, ...], rec: Record, digests: dict, index: int,
            traced_out: Path | None = None) -> float | None:
    """One invocation; returns its wall time, or None after a nonzero exit,
    which counts as a failed operation."""
    SCRATCH.mkdir(exist_ok=True)
    artifact = SCRATCH / f"cli-{index}.json"
    if artifact.exists():
        artifact.unlink()
    if traced_out is None:
        cmd = [sys.executable, "-m", "sharmonic", *args]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
               str(traced_out), *args]
    rec.attempted += 1
    start = time.perf_counter()
    proc = subprocess.run(cmd + ["--out-json", str(artifact)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    label = " ".join(args)
    if proc.returncode != 0:
        rec.refuse("cli_exit")
        sys.stdout.write(f"# cli failure ({proc.returncode}): {label}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-300:]}\n")
        return None
    rec.sample("cli_s", elapsed)
    data = artifact.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    rec.gate("cli_deterministic", digests.setdefault(args, digest) == digest,
             f"{label}: artifact sha256 differs between invocations")
    payload = json.loads(data)
    if args[0] == "approximate":
        check_report(rec, payload["report"], label)
    else:
        residual = payload["report"].get("max_residual",
                                         payload["report"].get("residual_equation"))
        rec.gate("demo_finite_residual", residual is not None and math.isfinite(residual),
                 f"{label}: residual {residual}")
    return elapsed


WORKLOADS = {"library-sweep": LibrarySweep, "evaluate": Evaluate}
