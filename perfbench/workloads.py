"""Seeded inputs of the four workloads, and the probes of the seed's defects.

Every in-process workload cycles through a pool of inputs.  The pool is
stratified: the input range is cut into equal strata, the seed places one
input uniformly inside each stratum, and the strata are visited in
bit-reversed order.  Every prefix of the visiting order therefore covers the
whole range evenly, so a short run of expensive operations (``oracle``)
sees the same mix of inputs under every seed, and only the positions inside
the strata change.  The same seed always gives the same pool.

The timed pools of ``sweep`` and ``oracle`` stop where the seed commit
starts to fail, so that no timed operation fails and ``failed`` counts only
new defects.  The rest of each ROADMAP range is a probe: a fixed, seeded set
of inputs that every run checks outside the timed loop and reports as the
share it gets wrong.  A fix of those defects shows up as a lower share.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "crosscheck", "oracle", "cli")

# Pool sizes (powers of two, for the bit-reversed visiting order).
SWEEP_POOL = 128
SWEEP_PROBE = 32
CROSSCHECK_POOL = 64
ORACLE_WELLS = 16
ORACLE_PROBE = 2
CLI_ROUNDS = 8

# Direct-evaluation limit of the inside phase, as in ground_state_from_gamma.
GAMMA_MAX = 0.5 * math.pi - 1e-9
# Span of the paper's tables, in multiples of pi.
TABLE_SPAN_PI = (0.15, 0.49)

# Defects measured at the seed commit, and where each workload's timed
# range therefore starts.
#   sweep:  beta0 = sqrt((R - g)(R + g)) cancels, so alpha' misses 1e-8 for
#           R below ~5e-4 (0.9 relative error at R = 1e-8).  Above R = 1e-3
#           it stays below 1e-9.  Timed: log10 R in [-3, 9]; probe: [-8, -3].
#   oracle: alpha_from_curvature raises FieldTooLargeError for
#           gamma0 <= ~0.172 pi (R below ~0.63).  Timed: gamma0 in
#           [0.18, 0.49] pi; probe: [0.15, 0.18] pi.
SWEEP_LOG10_R = (-3.0, 9.0)
SWEEP_PROBE_LOG10_R = (-8.0, -3.0)
ORACLE_SPAN_PI = (0.18, TABLE_SPAN_PI[1])
ORACLE_PROBE_SPAN_PI = (TABLE_SPAN_PI[0], 0.18)

SEED_DEFECTS = {
    "sweep": "R in [1e-8, 1e-3]: alpha' misses 1e-8 below R ~ 5e-4 (beta0 cancels)",
    "oracle": "gamma0 in [0.15, 0.18] pi: FieldTooLargeError below ~0.172 pi",
}


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order; n must be a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"pool size must be a power of two, got {n}")
    bits = n.bit_length() - 1
    return sorted(range(n), key=lambda k: int(format(k, f"0{bits}b")[::-1] or "0", 2))


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One point per stratum of (lo, hi], strata in bit-reversed order."""
    width = (hi - lo) / n
    points = [lo + (k + 1.0 - rng.random()) * width for k in range(n)]
    return [points[k] for k in bit_reversed(n)]


def sweep_pool(seed: int) -> list[float]:
    """Well strengths R, log-uniform over [1e-3, 1e9]."""
    rng = random.Random(f"sweep:{seed}")
    return [10.0**x for x in stratified(rng, SWEEP_POOL, *SWEEP_LOG10_R)]


def sweep_probe(seed: int) -> list[float]:
    """Well strengths R, log-uniform over [1e-8, 1e-3]."""
    rng = random.Random(f"sweep-probe:{seed}")
    return [10.0**x for x in stratified(rng, SWEEP_PROBE, *SWEEP_PROBE_LOG10_R)]


def crosscheck_pool(seed: int) -> list[float]:
    """Inside phases gamma0, uniform over (0, pi/2 - 1e-9]."""
    rng = random.Random(f"crosscheck:{seed}")
    return stratified(rng, CROSSCHECK_POOL, 0.0, GAMMA_MAX)


def _wells(rng: random.Random, n: int, span_pi) -> list[dict]:
    lo, hi = span_pi
    return [
        {"gamma": g, "R": g / math.cos(g)}  # R^2 = g^2 + (g tan g)^2
        for g in stratified(rng, n, lo * math.pi, hi * math.pi)
    ]


def oracle_pool(seed: int) -> list:
    """The hard-wall box (None) followed by wells with gamma0 uniform over
    [0.18, 0.49] pi."""
    return [None] + _wells(random.Random(f"oracle:{seed}"), ORACLE_WELLS, ORACLE_SPAN_PI)


def oracle_probe(seed: int) -> list[dict]:
    """Wells with gamma0 uniform over [0.15, 0.18] pi."""
    return _wells(random.Random(f"oracle-probe:{seed}"), ORACLE_PROBE, ORACLE_PROBE_SPAN_PI)


CLI_KINDS = ("table1", "table2", "solve_csv", "solve_json", "sweep",
             "limits_delta", "limits_infinite", "calibrate")


def cli_pool(seed: int) -> list[dict]:
    """CLI invocations: rounds that each run every command kind once.

    The order inside a round and the wells of ``solve`` and ``sweep`` come
    from the seed; the wells lie in the span of the paper's tables.  A run does
    not reach the end of the 64 invocations, so none repeats and each one's
    cost is its single run.
    """
    rng = random.Random(f"cli:{seed}")
    lo, hi = TABLE_SPAN_PI
    pool = []
    for _ in range(CLI_ROUNDS):
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "table1":
                argv = ["table1"]
            elif kind == "table2":
                argv = ["table2"]
            elif kind == "solve_csv":
                argv = ["solve", "--gamma", f"{rng.uniform(lo, hi):.4f}pi", "--format", "csv"]
            elif kind == "solve_json":
                R = 10.0 ** rng.uniform(math.log10(0.53), math.log10(49.0))
                argv = ["solve", "--R", repr(R), "--format", "json"]
            elif kind == "sweep":
                start = rng.uniform(lo, hi - 0.04)
                argv = ["sweep", "--min", f"{start:.3f}pi",
                        "--max", f"{start + 0.04:.3f}pi", "--step", "0.01pi"]
            elif kind == "limits_delta":
                argv = ["limits", "--mode", "delta"]
            elif kind == "limits_infinite":
                argv = ["limits", "--mode", "infinite"]
            else:
                argv = ["calibrate"]
            pool.append({"kind": kind, "argv": argv})
    return pool


def angle(text: str) -> float:
    """Radians from a '0.39pi' argument, parsed the way the CLI parses it."""
    return float(text[: -len("pi")]) * math.pi


def sweep_gammas(argv: list[str]) -> list[float]:
    """The inside phases a ``sweep`` invocation prints, one per row."""
    lo = angle(argv[argv.index("--min") + 1])
    hi = angle(argv[argv.index("--max") + 1])
    step = angle(argv[argv.index("--step") + 1])
    gammas = []
    while lo + len(gammas) * step <= hi + 1e-9 * step:
        gammas.append(lo + len(gammas) * step)
    return gammas


POOLS = {
    "sweep": sweep_pool,
    "crosscheck": crosscheck_pool,
    "oracle": oracle_pool,
    "cli": cli_pool,
}

PROBES = {
    "sweep": sweep_probe,
    "oracle": oracle_probe,
}
