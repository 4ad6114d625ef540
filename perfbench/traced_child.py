"""Run one capaf command with the layer tracer installed.

Usage: python3 perfbench/traced_child.py TRACE_JSON capaf-args...

Imports capaf from the PYTHONPATH the caller set, wraps each layer (see
layers.py), runs ``capaf.cli.main`` on the remaining arguments and writes
the per-layer metrics to TRACE_JSON.  The exit code is capaf's.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Tracer, install  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    # the startup layer covers the imports and the wrapping itself
    tracer.enter("startup", "startup.import")
    tracer.stack[-1][2] = T_START
    import capaf.cli

    install(tracer)
    tracer.exit()
    rc = tracer.span("cli", "cli.main", lambda: capaf.cli.main(argv))
    out = {"metrics": tracer.metrics(), "self_total_s": tracer.self_total(),
           "capaf_file": capaf.__file__}
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
