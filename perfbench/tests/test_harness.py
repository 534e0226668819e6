"""The benchmark's own arithmetic: self time, tail percentiles, failure
counting, seeded inputs and the metric names BENCHMARK.json declares.

    python -m pytest perfbench/tests
"""

import itertools
import json
import math
import os
import sys
import types

import pytest

import checks
import run
import stats
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        (0.0, 10.0, -1),   # 0: root
        (1.0, 4.0, 0),     # 1: child
        (5.0, 9.0, 0),     # 2: child
        (6.0, 8.0, 2),     # 3: grandchild, counts against 2 only
        (3.0, 5.0, 0),     # 4: child overlapping 1 by one unit
    ]
    assert tracer.self_times(spans) == [10.0 - 8.0, 3.0, 2.0, 2.0, 2.0]


def test_tracer_records_nested_spans_with_parent_and_operation():
    ticks = itertools.count()
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: inner() or inner())
    op = tr.wrap(tracer.OP, outer)
    op()
    op()
    assert list(tr.parent[:4]) == [-1, 0, 1, 1]
    assert list(tr.op_id) == [0, 0, 0, 0, 1, 1, 1, 1]
    totals = tr.layer_totals()
    # outer spans 5 ticks, of which its two inner calls cover 1 each
    assert totals["outer"] == {"calls": 2, "total_s": 10.0, "self_s": 6.0}
    assert totals["inner"] == {"calls": 4, "total_s": 4.0, "self_s": 4.0}
    assert totals[tracer.OP]["self_s"] == 2 * 2.0


def test_install_rebinds_every_module_that_imported_a_layer(monkeypatch):
    package = types.ModuleType("wellpol")
    spectrum = types.ModuleType("wellpol.well_spectrum")
    oracle = types.ModuleType("wellpol.grid_oracle")
    exec("def ground_state_from_R(R):\n    return R", spectrum.__dict__)
    oracle.ground_state_from_R = spectrum.ground_state_from_R  # from .well_spectrum import ...
    exec("def oracle_study(R):\n    return ground_state_from_R(R)", oracle.__dict__)
    for module in (package, spectrum, oracle):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    for name in list(sys.modules):
        if name.startswith("wellpol.") and name not in (spectrum.__name__, oracle.__name__):
            monkeypatch.delitem(sys.modules, name)
    tr = tracer.Tracer()
    tracer.install(tr)
    assert oracle.oracle_study(2.0) == 2.0
    names = [tr.names[i] for i in tr.name_id]
    assert names == ["grid_oracle.oracle_study", "well_spectrum.ground_state_from_R"]
    assert list(tr.parent) == [-1, 0]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert stats.tail_percentile(range(1, 101)) == (90, 10)
    assert stats.tail_percentile(range(1, 100)) is None
    # ties at the quantile do not count as beyond it
    assert stats.tail_percentile([1.0] * 85 + [2.0] * 15) is None
    assert stats.tail_percentile([1.0] * 90 + [2.0] * 10) == (1.0, 10)


def test_raising_and_out_of_tolerance_operations_are_attempted_and_failed():
    ticks = itertools.count()
    pool = [1.0, 2.0, 3.0]
    refs = [1.0, 2.0, 3.0]

    def op(R):
        if R == 1.0:
            raise ZeroDivisionError("boom")
        return R * (1.0 + 1e-6) if R == 2.0 else R

    clock = lambda: float(next(ticks))  # noqa: E731
    loop = stats.timed_loop(op, checks.check_sweep, pool, refs, seconds=17,
                            clock=clock, cpu_clock=clock)
    # each operation takes 3 ticks (CPU start, CPU end, wall end): 6 fit in 17
    tally = loop.tally
    assert tally.attempted == 6 and loop.wall_s == 18.0 and loop.cpu_s == 6.0
    assert tally.failed == 4
    assert tally.failures[0][0] == 2 and "ZeroDivisionError" in tally.failures[0][1]
    assert tally.failures[1][0] == 2 and "relative error" in tally.failures[1][1]
    assert 2 not in tally.failures
    assert tally.fail_share == pytest.approx(4 / 6)


def test_rate_and_median_latency_take_each_inputs_fastest_operation():
    # wall time runs at twice the CPU time: the host takes the CPU half the time
    wall, cpu = [0.0], [0.0]
    costs = {"a": iter([3.0, 1.0, 2.0]), "b": iter([4.0, 5.0, 6.0]), "c": iter([2.0, 9.0])}

    def op(item):
        cost = next(costs[item])
        wall[0] += 2.0 * cost
        cpu[0] += cost

    loop = stats.timed_loop(op, lambda *a: None, ["a", "b", "c"], [None] * 3, seconds=30,
                            clock=lambda: wall[0], cpu_clock=lambda: cpu[0])
    summary = loop.summary()
    # a=3, b=4, c=2, a=1, b=5 take the wall clock to 30
    assert summary["attempted"] == 5 and loop.wall_s == 30.0 and loop.cpu_s == 15.0
    assert loop.fastest == {0: 1.0, 1: 4.0, 2: 2.0}
    assert summary["ops_per_s"] == 3 / 7.0 and summary["op_p50_s"] == 2.0
    assert summary["inputs"] == 3 and summary["op_p90_s"] is None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    make = workloads.POOLS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_pools_cover_their_ranges_stratum_by_stratum():
    assert sorted(workloads.bit_reversed(8)) == list(range(8))
    assert workloads.bit_reversed(8)[:4] == [0, 4, 2, 6]
    log_r = sorted(math.log10(R) for R in workloads.sweep_pool(3))
    width = 12.0 / workloads.SWEEP_POOL
    assert all(-3.0 + k * width <= x <= -3.0 + (k + 1) * width for k, x in enumerate(log_r))
    gammas = workloads.crosscheck_pool(3)
    assert all(0.0 < g <= workloads.GAMMA_MAX for g in gammas)
    oracle = workloads.oracle_pool(3)
    assert oracle[0] is None
    assert all(0.18 * math.pi < w["gamma"] <= 0.49 * math.pi for w in oracle[1:])


@pytest.mark.parametrize("seed", range(4))
def test_probes_cover_what_the_timed_pools_leave_of_each_range(seed):
    probe_r = workloads.sweep_probe(seed)
    assert len(probe_r) == workloads.SWEEP_PROBE
    assert all(1e-8 < R <= 1e-3 for R in probe_r)
    assert min(probe_r) < 1e-7 and max(probe_r) > 1e-4
    assert min(workloads.sweep_pool(seed)) >= 1e-3
    probe_wells = workloads.oracle_probe(seed)
    assert all(0.15 * math.pi < w["gamma"] <= 0.18 * math.pi for w in probe_wells)
    assert probe_r == workloads.sweep_probe(seed) and probe_r != workloads.sweep_probe(seed + 1)


def test_box_constant_and_printed_cell_resolution():
    import reference
    assert reference.BOX_ALPHA == pytest.approx(0.0702247336, abs=1e-10)
    assert checks._half_unit("0.173148") == pytest.approx(5e-7)
    assert checks._half_unit("3.88E+2") == pytest.approx(0.5)
    assert checks._half_unit("4.24E-7") == pytest.approx(5e-10)


def test_cli_check_rejects_nonzero_exit_and_wrong_rows():
    item = {"kind": "table2", "argv": ["table2"]}
    import reference
    good = "\n".join([checks.TABLE2_HEADER,
                      "0.190000,0.405655,0.721698,4.93E+1,0.620993,4.99E+1",
                      "0.170000,0.315849,0.620477,1.31E+2,0.677762,1.32E+2",
                      "0.150000,0.240108,0.528884,3.87E+2,0.733438,3.88E+2"]) + "\n"
    assert checks.check_cli(item, 0, good, reference.TABLE2) is None
    assert checks.check_cli(item, 1, good, reference.TABLE2) == "exit status 1"
    assert "paper" in checks.check_cli(item, 0, good.replace("0.620993", "0.620995"),
                                       reference.TABLE2)


def test_benchmark_json_declares_the_metrics_run_py_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
