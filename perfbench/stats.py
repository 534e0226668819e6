"""The benchmark's own arithmetic: percentiles, failure tallies, the closed loop."""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field

# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values, q: float = 0.9, min_beyond: int = MIN_BEYOND):
    """Nearest-rank q-quantile and the count of samples above it.

    Returns None unless at least ``min_beyond`` samples lie strictly above
    the quantile, so a tail figure always rests on that many samples.
    """
    ordered = sorted(values)
    if not ordered:
        return None
    value = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    beyond = len(ordered) - bisect.bisect_right(ordered, value)
    if beyond < min_beyond:
        return None
    return value, beyond


class Tally:
    """Attempted and failed operations, with the failures per pool index."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[int, list] = {}  # pool index -> [count, first reason]

    def record(self, index: int, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            entry = self.failures.setdefault(index, [0, reason])
            entry[0] += 1

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Loop:
    """Outcome of one closed-loop run: the tally, the wall and CPU time the
    operations took, and each pool item's fastest operation."""

    tally: Tally
    wall_s: float = 0.0
    cpu_s: float = 0.0
    fastest: dict = field(default_factory=dict)  # pool index -> least CPU time

    def summary(self) -> dict:
        costs = list(self.fastest.values())
        tail = tail_percentile(costs)
        return {
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "fail_share": self.tally.fail_share,
            "failures": {str(k): v for k, v in self.tally.failures.items()},
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "inputs": len(costs),
            "ops_per_s": len(costs) / sum(costs),
            "op_p50_s": median(costs),
            "op_p90_s": tail[0] if tail else None,
            "op_p90_beyond": tail[1] if tail else 0,
        }


def timed_loop(op, check, pool, refs, seconds: float, clock=time.perf_counter,
               cpu_clock=time.thread_time) -> Loop:
    """Run ``op`` over the pool, cyclically, in a closed loop for ``seconds``.

    One operation is ``op(pool[i])``; its cost is the CPU time ``cpu_clock``
    counts across it, without ``check``, which compares the result with
    ``refs[i]`` and returns None or a failure reason.  An operation that
    raises is attempted and failed, and so is one whose result the check
    rejects.

    Each pool item keeps its least cost over the run.  On a shared host the
    CPU time of the same operation swings by up to 1.7x over seconds, as
    other tenants load the caches and cores it shares; the least cost of
    each input is the one the program controls.
    """
    loop = Loop(Tally())
    n = len(pool)
    i = 0
    start = now = clock()
    while now - start < seconds:
        k = i % n
        c0 = cpu_clock()
        try:
            result = op(pool[k])
        except Exception as exc:  # every raise is a counted failure
            cost = cpu_clock() - c0
            reason = f"raised {type(exc).__name__}: {exc}"[:200]
        else:
            cost = cpu_clock() - c0
            reason = check(pool[k], result, refs[k])
        now = clock()
        loop.cpu_s += cost
        loop.fastest[k] = min(cost, loop.fastest.get(k, cost))
        loop.tally.record(k, reason)
        i += 1
    loop.wall_s = now - start
    return loop


def relative_error(value: float, reference: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - reference) / abs(reference)
