"""``python -m wellpol.cli ARGS`` with wellpol's layers traced.

The CLI output goes to stdout unchanged.  After the command returns, one
line starting with MARK and holding the span summary as JSON goes to
stderr, and the process exits with the command's status.
"""

from __future__ import annotations

import json
import sys
import time

import tracer as tracing

MARK = "perfbench-trace "


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    import wellpol.cli

    import_s = time.perf_counter() - started
    tr = tracing.Tracer()
    tr.capture_warnings()
    tracing.install(tr)
    code = tr.wrap(tracing.OP, lambda: wellpol.cli.main(argv))()
    sys.stdout.flush()
    totals = tr.layer_totals()
    totals.pop(tracing.OP, None)
    summary = {"import_s": import_s, "layers": totals, "counters": dict(tr.counters)}
    sys.stderr.write(MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
