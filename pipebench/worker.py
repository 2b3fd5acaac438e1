"""Worker process of the in-process workloads (library-sweep, evaluate).

Usage: python3 pipebench/worker.py WORKLOAD SEED SECONDS MODE T0

MODE is one of
  setup      import and set up, then exit (a set-up time sample);
  timed      set up, then run operations in a closed loop for SECONDS;
  traced     set up and run the fixed traced operation list with spans;
  reference  the same fixed list without spans (the overhead reference).
After the operations, a workload with a known-defect probe runs it once,
outside the measured wall time.
T0 is the parent's time.monotonic() at spawn, so the reported set-up time
covers interpreter start, import and set-up.  The last line of standard
output is "RESULT <json>".
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time

from tracing import Tracer
from workloads import (EVAL_TRACE_ROUNDS, SWEEP_TRACE_OPS, WORKLOADS, Record,
                       closed_loop, import_sharmonic, until)

FIXED_OPS = {"library-sweep": SWEEP_TRACE_OPS, "evaluate": EVAL_TRACE_ROUNDS}


def main(argv: list[str]) -> int:
    name, seed, seconds, mode, t0 = argv
    seed, seconds, t0 = int(seed), float(seconds), float(t0)
    import_s = import_sharmonic()
    tracer = None
    if mode == "traced":
        tracer = Tracer(phase="setup")
        tracer.install()
    rec = Record()
    workload = WORKLOADS[name](seed)
    workload.setup(rec)
    setup_s = time.monotonic() - t0
    wall_s = 0.0
    if mode != "setup":
        ops = workload.operations()
        if mode == "timed":
            ops = until(time.perf_counter() + seconds, ops)
        else:
            ops = itertools.islice(ops, FIXED_OPS[name])
        if tracer is not None:
            tracer.phase = "timed"
        wall_s = closed_loop(lambda op: workload.run(op, rec, tracer), ops, rec,
                             kind=workload.kind)
        if hasattr(workload, "probe"):
            workload.probe(rec, tracer)
    result = {
        "import_s": import_s, "setup_s": setup_s, "wall_s": wall_s,
        "record": rec.to_dict(),
        "trace": tracer.snapshot() if tracer is not None else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    sys.stdout.write("RESULT " + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
