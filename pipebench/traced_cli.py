"""Run the sharmonic CLI with spans around its layers.

Usage: python3 pipebench/traced_cli.py TRACE_OUT CLI_ARGS...

Behaves like ``python -m sharmonic CLI_ARGS...`` (same exit code) and
writes the span summary plus the import time of ``sharmonic.cli`` to
TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tracing import Tracer
from workloads import import_sharmonic


def main(argv: list[str]) -> int:
    out, args = Path(argv[0]), argv[1:]
    import_s = import_sharmonic("sharmonic.cli")
    tracer = Tracer(phase="timed")
    tracer.install()
    try:
        code = sys.modules["sharmonic.cli"].main(args)
    finally:
        out.write_text(json.dumps({"import_s": import_s, "trace": tracer.snapshot()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
