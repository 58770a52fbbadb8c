"""Run one kvmflow command with per-layer spans, for the traced cli workload.

Usage: python traced_cli.py SPANS_JSON COMMAND [OPTIONS...]

Behaves like ``python -m kvmflow.cli COMMAND [OPTIONS...]`` and exits with
its code; the spans of the run and the in-process time of ``cli.main`` are
written to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path

import kvmflow.cli

from spans import Tracer


def main() -> int:
    spans_json, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return kvmflow.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        spans_json.write_text(json.dumps({"spans": tracer.spans, "main_s": main_s}))


if __name__ == "__main__":
    sys.exit(main())
