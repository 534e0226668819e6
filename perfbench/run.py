"""wellpol benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that has ``src/wellpol``.  Every process
this starts has OMP/OpenBLAS/MKL threads pinned to 1.  Human-readable lines
come first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import reference
import stats
import workloads
from trace_child import MARK

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fresh interpreters whose import time is the median set-up time, half of
# them before the timed loop and half after it.
SETUP_SAMPLES = 6
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CALLS_SELF = ("well_spectrum.ground_state_from_R", "well_spectrum.ground_state_from_gamma",
               "dalgarno_lewis.breakdown", "dalgarno_lewis.alpha_via_quadrature")
_SELF_ONLY = ("dalgarno_lewis.orthogonality", "limits.delta_limit", "limits.infinite_well_limit",
              "conventional_sum.infinite_well_alpha", "grid_oracle.oracle_study",
              "grid_oracle.alpha_sum_over_states", "grid_oracle.refine",
              "grid_oracle.alpha_from_curvature", "grid_oracle.GridOracleConfig")
_PROBES = (("well_spectrum.ground_state_from_R.small_R_miss_share", "sweep"),
           ("grid_oracle.alpha_from_curvature.weak_well_fail_share", "oracle"))
_IMPORTS = (("import.wellpol_s", "wellpol"), ("import.scipy_integrate_s", "scipy.integrate"),
            ("import.scipy_linalg_s", "scipy.linalg"), ("import.numpy_s", "numpy"))

PER_LAYER = (
    tuple((name, "s") for name, _ in _IMPORTS)
    + tuple(m for layer in _CALLS_SELF
            for m in ((f"{layer}.calls", "calls/op"), (f"{layer}.self_s", "s/op")))
    + (("dalgarno_lewis.alpha_via_quadrature.warnings", "warnings/op"),)
    + tuple((f"{layer}.self_s", "s/op") for layer in _SELF_ONLY)
    + (
        ("dalgarno_lewis.orthogonality.warnings", "warnings/op"),
        ("grid_oracle.eigensolves", "solves/op"),
        ("grid_oracle.grid_points", "points/op"),
        ("grid_oracle.eigvec_bytes_computed", "bytes/op"),
        ("grid_oracle.convergence_warnings", "warnings/op"),
        ("cli.interpreter_s", "s"),
        ("cli.main_s", "s/op"),
        ("cli.output_bytes", "bytes/op"),
        ("trace.untraced_ops_per_s", "1/s"),
        ("trace.traced_ops_per_s", "1/s"),
        ("trace.layer_self_share", "share"),
    )
    + tuple((name, "share") for name, _ in _PROBES)
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # A fixed threshold stops glibc from raising it after the first large
    # free, which otherwise keeps freed eigenvector arrays on the heap and
    # makes peak RSS depend on the order of grid sizes a seed produces.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    return env


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(args: list[str], stdin: bytes = b"", timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python args`` to completion; its wall time and its own peak RSS.

    The child is reaped with wait4 so its resource usage is its own.  The
    stdin payload is small (a few KiB) and written before reading.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
    except BrokenPipeError:
        pass
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise TimeoutError(f"{args[:3]} did not finish within {timeout:.0f} s")
            for key, _ in selector.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                 b"".join(chunks[proc.stderr]).decode(), wall, usage.ru_maxrss / 1024.0)


def checked(child: Child, what: str) -> Child:
    if child.code != 0:
        raise RuntimeError(f"{what} exited with {child.code}: {child.stderr.strip()[-2000:]}")
    return child


def setup_samples(count: int) -> list[float]:
    """CPU time of fresh interpreters from their start until ``import
    wellpol`` returns.  CPU time, not wall time, so that the time a shared
    host gives the CPU to other tenants is left out."""
    code = "import time, wellpol; print(repr(time.process_time()))"
    return [float(checked(run_child(["-c", code]), "import wellpol").stdout)
            for _ in range(count)]


def cpu_with_children() -> float:
    """CPU time of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_seconds() -> dict[str, float]:
    """Cumulative import times from ``-X importtime``, median of a few runs."""
    runs = {name: [] for name, _ in _IMPORTS}
    for _ in range(IMPORT_SAMPLES):
        child = checked(run_child(["-X", "importtime", "-c", "import wellpol"]), "importtime")
        cumulative = {}
        for line in child.stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, module = line.split("|")
                if cum.strip().isdigit():
                    cumulative.setdefault(module.strip(), int(cum) * 1e-6)
        for name, module in _IMPORTS:
            runs[name].append(cumulative.get(module, 0.0))
    return {name: stats.median(values) for name, values in runs.items()}


def versions() -> dict:
    code = ("import json, sys, numpy, scipy; print(json.dumps({'python': sys.version.split()[0], "
            "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
    return json.loads(checked(run_child(["-c", code]), "version probe").stdout)


def interpreter_seconds() -> float:
    return stats.median(checked(run_child(["-c", "pass"]), "python -c pass").wall_s
                        for _ in range(SETUP_SAMPLES))


def in_process(workload: str, seed: int, seconds: float, trace: bool):
    pool = workloads.POOLS[workload](seed)
    refs = probe_refs = None
    if workload == "sweep":
        refs = [reference.alpha_prime_at_R(R) for R in pool]
        probe_refs = [reference.alpha_prime_at_R(R) for R in workloads.sweep_probe(seed)]
    elif workload == "oracle":
        refs = [reference.BOX_ALPHA if well is None else None for well in pool]
    payload = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "refs": refs, "probe_refs": probe_refs}
    child = checked(run_child([os.path.join(HERE, "worker.py")], json.dumps(payload).encode()),
                    f"{workload} worker")
    out = json.loads(child.stdout.splitlines()[-1])
    out["peak_rss_mb"] = child.maxrss_mb
    return out


def cli_phase(pool, expected, seconds: float, traced: bool) -> dict:
    children: list[Child] = []

    def op(item):
        entry = [os.path.join(HERE, "trace_child.py")] if traced else ["-m", "wellpol.cli"]
        children.append(run_child(entry + item["argv"]))
        return children[-1]

    def check(item, child, want):
        return checks.check_cli(item, child.code, child.stdout, want)

    result = stats.timed_loop(op, check, pool, expected, seconds,
                              cpu_clock=cpu_with_children).summary()
    result.update(
        peak_rss_mb=max(c.maxrss_mb for c in children),
        output_bytes=sum(len(c.stdout.encode()) for c in children),
        op_total_s=sum(c.wall_s for c in children),
    )
    if traced:
        layers, counters, import_s = {}, {}, 0.0
        for child in children:
            line = next(ln for ln in child.stderr.splitlines() if ln.startswith(MARK))
            summary = json.loads(line[len(MARK):])
            import_s += summary["import_s"]
            for name, entry in summary["layers"].items():
                total = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in total:
                    total[key] += entry[key]
            for name, value in summary["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        result.update(layers=layers, counters=counters, import_s=import_s)
    return result


def cli_workload(seed: int, seconds: float, trace: bool):
    pool = workloads.cli_pool(seed)
    expected = [checks.cli_expected(item) for item in pool]
    out = {"untraced": cli_phase(pool, expected, seconds, traced=False)}
    out["peak_rss_mb"] = out["untraced"]["peak_rss_mb"]
    if trace:
        out["traced"] = cli_phase(pool, expected, seconds, traced=True)
    return out


def layer_metrics(workload: str, untraced: dict, traced: dict) -> dict[str, float]:
    ops = traced["attempted"]
    layers, counters = traced["layers"], traced["counters"]
    values = dict(import_seconds())
    for layer in _CALLS_SELF + _SELF_ONLY:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = entry["calls"] / ops
        values[f"{layer}.self_s"] = entry["self_s"] / ops

    def warnings_in(prefix="", category=""):
        return sum(v for k, v in counters.items()
                   if ".warnings." in k and k.startswith(prefix) and k.endswith(category)) / ops

    for layer in ("dalgarno_lewis.alpha_via_quadrature", "dalgarno_lewis.orthogonality"):
        values[f"{layer}.warnings"] = warnings_in(prefix=layer + ".warnings.")
    values["grid_oracle.convergence_warnings"] = warnings_in(category=".ConvergenceWarning")
    for name in ("eigensolves", "grid_points", "eigvec_bytes_computed"):
        values[f"grid_oracle.{name}"] = counters.get(f"grid_oracle.{name}", 0.0) / ops
    interpreter_s = interpreter_seconds()
    values["cli.interpreter_s"] = interpreter_s
    main = layers.get("cli.main", {"total_s": 0.0})
    values["cli.main_s"] = main["total_s"] / ops
    values["cli.output_bytes"] = traced.get("output_bytes", 0) / ops
    values["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    values["trace.traced_ops_per_s"] = traced["ops_per_s"]
    covered = sum(entry["self_s"] for entry in layers.values())
    if workload == "cli":  # interpreter start and import precede main in every child
        covered += ops * interpreter_s + traced["import_s"]
    values["trace.layer_self_share"] = covered / traced["op_total_s"]
    return values


def failure_reasons(phases) -> list[str]:
    return [f"pool item {index} ({count}x): {reason}"
            for phase in phases for index, (count, reason) in phase["failures"].items()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wellpol", "__init__.py")):
        print(f"perfbench: no wellpol sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    trace = bool(args.trace)
    if not trace:
        setup_samples(1)  # warm-up: writes bytecode, fills the page cache
        # The host's speed drifts over tens of seconds; samples on both sides
        # of the timed loop keep one slow spell from setting the median.
        early = setup_samples(SETUP_SAMPLES // 2)
    # A traced run splits its time between the untraced and the traced loop.
    seconds = args.seconds / 2 if trace else args.seconds
    if args.workload == "cli":
        out = cli_workload(args.seed, seconds, trace)
    else:
        out = in_process(args.workload, args.seed, seconds, trace)
    setup = None if trace else stats.median(early + setup_samples(SETUP_SAMPLES - len(early)))
    untraced = out["untraced"]
    phases = [untraced] + ([out["traced"]] if trace else [])
    reasons = failure_reasons(phases)
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)

    print(f"# wellpol benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    env = {"nproc": len(os.sched_getaffinity(0)), "threads_pinned": 1, **versions()}
    print(f"# env {json.dumps(env)}")
    n = untraced["inputs"]
    print(f"ops_per_s {untraced['ops_per_s']:.6g} 1/s (per CPU second, each of {n} inputs at "
          f"its fastest; {untraced['attempted']} ops in {untraced['cpu_s']:.3f} s CPU, "
          f"{untraced['wall_s']:.3f} s wall)")
    print(f"op_p50_ms {untraced['op_p50_s'] * 1e3:.6g} ms (CPU, median over {n} inputs "
          f"of each one's fastest)")
    if untraced["op_p90_s"] is None:
        print(f"op_p90_ms not reported: n={n} leaves fewer than {stats.MIN_BEYOND} samples beyond it")
    else:
        print(f"op_p90_ms {untraced['op_p90_s'] * 1e3:.6g} ms "
              f"(n={n}, {untraced['op_p90_beyond']} beyond)")
    if setup is not None:
        print(f"setup_s {setup:.6g} s (CPU, median of {SETUP_SAMPLES} fresh interpreters, "
              f"half before and half after the timed loop)")
    print(f"fail_share {untraced['fail_share']:.6g} "
          f"({untraced['failed']} of {untraced['attempted']})")
    print(f"peak_rss_mb {out['peak_rss_mb']:.6g} MB")
    if "probe" in out:
        p = out["probe"]
        print(f"seed_defect_share {p['missed'] / p['checked']:.6g} ({p['missed']} of "
              f"{p['checked']} probe inputs, outside the timed loop; recorded at the seed: "
              f"{workloads.SEED_DEFECTS[args.workload]}; first: {p['first']})")
    for reason in reasons[:20]:
        print(f"# failure: {reason}")

    if trace:
        values = layer_metrics(args.workload, untraced, out["traced"])
        for name, workload in _PROBES:
            p = out.get("probe") if workload == args.workload else None
            values[name] = p["missed"] / p["checked"] if p else 0.0
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"{name} {values[name]:.6g} {unit}")
    else:
        values = {"ops_per_s": untraced["ops_per_s"], "op_p50_ms": untraced["op_p50_s"] * 1e3,
                  "setup_s": setup, "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
