"""Spans and counters around wellpol's public functions, from outside the package.

``install`` rebinds each listed function at every wellpol module that holds
it (``wellpol.grid_oracle.ground_state_from_R`` as well as
``wellpol.well_spectrum.ground_state_from_R``), so calls between modules are
caught too.  Each call records a span (name, start, end, parent, operation
id) in memory; self times are computed once the run has ended.  Warnings
raised inside a span are counted against the innermost open span and never
printed.
"""

from __future__ import annotations

import inspect
import sys
import time
import warnings
from array import array
from collections import defaultdict

OP = "op"

# (layer, module, attribute).  A dotted attribute names a method, rebound on
# its class.  Both GridOracleConfig methods solve the ground state, and
# together they are the config's cost.
LAYERS = (
    ("well_spectrum.ground_state_from_R", "wellpol.well_spectrum", "ground_state_from_R"),
    ("well_spectrum.ground_state_from_gamma", "wellpol.well_spectrum", "ground_state_from_gamma"),
    ("dalgarno_lewis.breakdown", "wellpol.dalgarno_lewis", "breakdown"),
    ("dalgarno_lewis.alpha_via_quadrature", "wellpol.dalgarno_lewis", "alpha_via_quadrature"),
    ("dalgarno_lewis.orthogonality", "wellpol.dalgarno_lewis", "orthogonality"),
    ("limits.delta_limit", "wellpol.limits", "delta_limit"),
    ("limits.infinite_well_limit", "wellpol.limits", "infinite_well_limit"),
    ("conventional_sum.infinite_well_alpha", "wellpol.conventional_sum", "infinite_well_alpha"),
    ("grid_oracle.oracle_study", "wellpol.grid_oracle", "oracle_study"),
    ("grid_oracle.alpha_sum_over_states", "wellpol.grid_oracle", "alpha_sum_over_states"),
    ("grid_oracle.refine", "wellpol.grid_oracle", "refine"),
    ("grid_oracle.alpha_from_curvature", "wellpol.grid_oracle", "alpha_from_curvature"),
    ("grid_oracle.GridOracleConfig", "wellpol.grid_oracle", "GridOracleConfig.__post_init__"),
    ("grid_oracle.GridOracleConfig", "wellpol.grid_oracle",
     "GridOracleConfig.resolved_box_half_width"),
    ("cli.main", "wellpol.cli", "main"),
)


def self_times(spans) -> list[float]:
    """Self time of each (start, end, parent) span: its duration minus the
    part of its interval covered by its children (parent -1 for a root)."""
    children = defaultdict(list)
    for index, (start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


class Tracer:
    """Span store and counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._open: list[int] = []
        self._op = -1
        self.counters: dict[str, float] = defaultdict(float)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str:
        return self.names[self.name_id[self._open[-1]]] if self._open else OP

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        nid = self._id(name)
        is_op = name == OP

        def traced(*args, **kwargs):
            if is_op:
                self._op += 1
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.op_id.append(self._op)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = self.clock()
                self._open.pop()

        traced.__wrapped__ = fn
        return traced

    def capture_warnings(self) -> None:
        """Count every warning against the innermost open span; print none."""
        warnings.simplefilter("always")

        def count(message, category, *args, **kwargs):
            self.counters[f"{self.current()}.warnings.{category.__name__}"] += 1

        warnings.showwarning = count

    def count_eigensolve(self, fn):
        """``fn`` (scipy's eigh_tridiagonal) counting grid points and the
        eigenvector bytes it computes (n * vectors * 8, not bytes moved)."""
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            a = call.arguments
            n = len(a["d"])
            lo, hi = a["select_range"] if a["select"] == "i" else (0, n - 1)
            vectors = 0 if a["eigvals_only"] else hi - lo + 1
            self.counters["grid_oracle.eigensolves"] += 1
            self.counters["grid_oracle.grid_points"] += n
            self.counters["grid_oracle.eigvec_bytes_computed"] += 8 * n * vectors
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, summed duration and summed self time."""
        spans = list(zip(self.start, self.end, self.parent))
        totals: dict[str, dict] = {}
        for nid, (start, end, _), own in zip(self.name_id, spans, self_times(spans)):
            entry = totals.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        return totals


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Rebind every listed layer at each wellpol module that imports it.

    A layer whose function no longer exists is skipped and reads zero.
    """
    modules = [m for name, m in sys.modules.items()
               if (name == "wellpol" or name.startswith("wellpol.")) and m is not None]
    for layer, module_name, attr in LAYERS:
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if owner is not None and method in vars(owner):
                setattr(owner, method, tracer.wrap(layer, vars(owner)[method]))
            continue
        original = getattr(module, attr, None)
        if original is not None:
            _rebind(modules, original, tracer.wrap(layer, original))
    oracle = sys.modules.get("wellpol.grid_oracle")
    eigh = getattr(oracle, "eigh_tridiagonal", None)
    if eigh is not None:
        _rebind([oracle], eigh, tracer.count_eigensolve(eigh))
