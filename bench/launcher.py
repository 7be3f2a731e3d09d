"""Traced CLI launcher for the cli-cold workload.

    python3 bench/launcher.py SPAN_FILE <twistlab subcommand and flags>

Imports ``twistlab.cli`` first, as ``python -m twistlab.cli`` does, then
installs the benchmark's wrappers, calls ``main`` and exits with its code.
The spans and counts go to SPAN_FILE as JSON.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import twistlab.cli

    t1 = time.perf_counter()
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    tracer.span("cli.import", t0, t1)
    try:
        code = twistlab.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    sys.exit(code)
