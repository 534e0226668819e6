"""What the benchmark under perfbench/ uses of the package still works.

Each workload runs in a fresh interpreter with perfbench/ on sys.path, as
the benchmark's worker does: the in-process workloads through
``worker.make_op`` and ``worker.warm_up`` on the first items of seed 1's
pool, each result checked against the reference values ``run.py`` passes,
and every CLI command kind once through ``cli.main``, checked by
``checks.check_cli``.  The child writes no bytecode, so perfbench/ is left
as it is.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = r"""
import contextlib, io, json, sys
import checks, reference, worker, workloads

workload, failures = sys.argv[1], []
if workload == "cli":
    import wellpol.cli

    pool = workloads.cli_pool(1)
    for kind in workloads.CLI_KINDS:
        item = next(i for i in pool if i["kind"] == kind)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = wellpol.cli.main(item["argv"])
        reason = checks.check_cli(item, code, out.getvalue(), checks.cli_expected(item))
        if reason is not None:
            failures.append(f"{' '.join(item['argv'])}: {reason}")
else:
    pool = workloads.POOLS[workload](1)[:4]
    if workload == "sweep":
        refs = [reference.alpha_prime_at_R(R) for R in pool]
    elif workload == "oracle":
        refs = [reference.BOX_ALPHA if well is None else None for well in pool]
    else:
        refs = [None] * len(pool)
    op, check = worker.make_op(workload)
    worker.warm_up(workload, op, pool)
    for item, ref in zip(pool, refs):
        reason = check(item, op(item), ref)
        if reason is not None:
            failures.append(f"{item!r}: {reason}")
print(json.dumps(failures))
"""


@pytest.mark.parametrize("workload", ["sweep", "crosscheck", "oracle", "cli"])
def test_workload_runs_and_checks_out(workload):
    path = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, workload],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == []
