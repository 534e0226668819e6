"""One in-process workload (sweep, crosscheck or oracle) in a fresh interpreter.

Started by run.py with BLAS/OpenMP threads pinned to 1.  Reads
{"workload", "seed", "seconds", "trace", "refs", "probe_refs"} as JSON on
stdin (``refs`` and ``probe_refs`` hold the reference value of each pool and
probe item, or null), runs the closed loop untraced (and then traced, with
--trace 1), checks the probe of the seed's defects outside the timed loops,
and writes one JSON object to stdout.  Warnings are counted, never printed.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import stats
import tracer as tracing
import workloads


def make_op(workload: str):
    """The operation of a workload, calling wellpol through module attributes
    so that the traced phase sees the rebound functions."""
    import wellpol.dalgarno_lewis as dl
    import wellpol.grid_oracle as go
    import wellpol.well_spectrum as ws

    if workload == "sweep":
        def op(R):
            return dl.breakdown(ws.ground_state_from_R(R)).alpha_prime
        return op, checks.check_sweep
    if workload == "crosscheck":
        def op(gamma):
            state = ws.ground_state_from_gamma(gamma)
            closed = dl.breakdown(state).alpha_prime
            quadrature = dl.alpha_via_quadrature(state)
            overlap = dl.orthogonality(state)
            jump = dl.phi_jump(dl.phi_reduced(state))
            return closed, quadrature, overlap, jump
        return op, checks.check_crosscheck

    def op(well):
        config = (go.GridOracleConfig.hard_wall() if well is None
                  else go.GridOracleConfig(well_R=well["R"]))
        result = go.oracle_study(config, levels=2)
        return result.alpha_sum, result.alpha_curvature, result.richardson_alpha
    return op, checks.check_oracle


def warm_up(workload: str, op, pool) -> None:
    """Fill caches and finish lazy set-up before timing."""
    if workload == "oracle":
        import wellpol.grid_oracle as go
        go.oracle_study(go.GridOracleConfig.hard_wall(num_points=500, num_states=50), levels=2)
        return
    for item in pool[:64]:
        try:
            op(item)
        except Exception:  # failures are counted in the timed loop, not here
            pass


def probe(op, check, items, refs) -> dict:
    """Check every probe item once; how many it gets wrong, and the first reason."""
    missed, first = 0, None
    for item, ref in zip(items, refs):
        try:
            reason = check(item, op(item), ref)
        except Exception as exc:  # a raise on a probe item is a miss
            reason = f"raised {type(exc).__name__}: {exc}"[:200]
        if reason is not None:
            missed += 1
            first = first or reason
    return {"checked": len(items), "missed": missed, "first": first}


def traced_summary(tr: tracing.Tracer) -> dict:
    totals = tr.layer_totals()
    root = totals.pop(tracing.OP, {"total_s": 0.0})
    return {"op_total_s": root["total_s"], "layers": totals, "counters": dict(tr.counters)}


def main() -> int:
    spec = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import wellpol

    package = os.path.realpath(os.path.dirname(wellpol.__file__))
    if not package.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        print(f"wellpol imported from {package}, not from this checkout", file=sys.stderr)
        return 2

    workload, seconds = spec["workload"], spec["seconds"]
    pool = workloads.POOLS[workload](spec["seed"])
    refs = spec["refs"] or [None] * len(pool)
    op, check = make_op(workload)
    tr = tracing.Tracer()
    tr.capture_warnings()
    warm_up(workload, op, pool)

    out = {"untraced": stats.timed_loop(op, check, pool, refs, seconds).summary()}
    if workload in workloads.PROBES:
        items = workloads.PROBES[workload](spec["seed"])
        out["probe"] = probe(op, check, items, spec["probe_refs"] or [None] * len(items))
    if spec["trace"]:
        tr.counters.clear()
        tracing.install(tr)
        traced = stats.timed_loop(tr.wrap(tracing.OP, op), check, pool, refs, seconds).summary()
        traced.update(traced_summary(tr))
        out["traced"] = traced
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
