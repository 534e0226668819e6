"""The result types behave as read-only value records.

One instance of each of the five types on the ``import wellpol`` path, and
of the grid oracle's config and result, is built twice from the same
inputs.  Every field is read-only, equal inputs give equal records with
equal hashes (``OracleResult`` holds a dict, so it has no hash), records of
different types never compare equal, ``copy``, ``deepcopy`` and a pickle
round trip at every protocol give back an equal record, and ``repr`` lists
every field in declaration order, derived fields included, in the
``Type(name=value, ...)`` format.  They are all ``_Record``s, so no module
of the package imports ``dataclasses``.
"""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

import wellpol
from wellpol.dalgarno_lewis import PolarizabilityBreakdown
from wellpol.grid_oracle import GridOracleConfig, OracleResult
from wellpol.limits import DeltaLimitSequence, InfiniteWellLimitReport
from wellpol.well_spectrum import GroundState, WellSpec

STATE_REPR = (
    "GroundState(gamma0=1.0, beta0=1.5574077246549023, R=1.8508157176809257, "
    "n_prime_sq=0.6089790492304309, energy_dimless=-2.42551882081476)"
)


def _state():
    return GroundState(1.0, math.tan(1.0), math.hypot(1.0, math.tan(1.0)))


# name -> (factory, frozen repr)
RECORDS = {
    "WellSpec": (
        lambda: WellSpec(0.5, 2.0, 1.0, -1.0),
        "WellSpec(half_width=0.5, depth=2.0, mass=1.0, charge=-1.0, hbar=1.0)",
    ),
    "GroundState": (_state, STATE_REPR),
    "PolarizabilityBreakdown": (
        lambda: PolarizabilityBreakdown(0.25, 0.5, 0.125, 1.0),
        "PolarizabilityBreakdown(alpha1_prime=0.25, alpha2_prime=0.5, alpha2_t_prime=0.125, "
        "alpha_apr_prime=1.0, alpha_prime=0.75, t_ratio=0.75)",
    ),
    "DeltaLimitSequence": (
        lambda: DeltaLimitSequence((0.5, 0.25, 0.125), (1.0, 1.125, 1.1875), (0.5, 0.25, 0.125)),
        "DeltaLimitSequence(a_values=(0.5, 0.25, 0.125), alpha1_scaled=(1.0, 1.125, 1.1875), "
        "alpha2_scaled=(0.5, 0.25, 0.125), v0_values=(1.0, 2.0, 4.0), "
        "alpha1_extrapolated=1.25, alpha2_extrapolated=0.0)",
    ),
    "InfiniteWellLimitReport": (
        lambda: InfiniteWellLimitReport((0.01, 0.0001), (0.5, 0.25), (1.0, 0.75), (0.25, 0.125)),
        "InfiniteWellLimitReport(epsilons=(0.01, 0.0001), alpha1_values=(0.5, 0.25), "
        "alpha2_values=(1.0, 0.75), alpha2_t_values=(0.25, 0.125), "
        "alpha1_limit=0.2474747474747475, alpha2_limit=0.7474747474747475, "
        "alpha2_t_limit=0.12373737373737374)",
    ),
    "GridOracleConfig": (
        lambda: GridOracleConfig(well_R=2.0, num_points=500),
        "GridOracleConfig(well_R=2.0, num_points=500, box_half_width=25, "
        "field_values=(0.001, 0.0005), ground=GroundState(gamma0=1.0298665293222589, "
        "beta0=1.714460536665025, R=2.0, n_prime_sq=0.6316026751935779, "
        "energy_dimless=-2.9393749317817255))",
    ),
    "OracleResult": (
        lambda: OracleResult(0.5, 0.5, -1.0, 0.5, {"grid_spacing": 0.25}),
        "OracleResult(alpha_sum=0.5, alpha_curvature=0.5, ground_energy_dimless=-1.0, "
        "richardson_alpha=0.5, diagnostics={'grid_spacing': 0.25}, route_gap=0.0)",
    ),
}
# The first field of each type, which every instance has.
FIRST_FIELD = {
    "WellSpec": "half_width",
    "GroundState": "gamma0",
    "PolarizabilityBreakdown": "alpha1_prime",
    "DeltaLimitSequence": "a_values",
    "InfiniteWellLimitReport": "epsilons",
    "GridOracleConfig": "well_R",
    "OracleResult": "alpha_sum",
}
# Records with a dict field, which has no hash.
UNHASHABLE = {"OracleResult"}


def assert_equal_hashes(name, first, second):
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(first)
    else:
        assert hash(first) == hash(second)


@pytest.fixture(params=list(RECORDS))
def name(request):
    return request.param


def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    field = FIRST_FIELD[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert getattr(record, field) is before


def test_equal_inputs_give_equal_records_and_hashes(name):
    factory = RECORDS[name][0]
    first, second = factory(), factory()
    assert first is not second
    assert first == second
    assert not first != second
    assert_equal_hashes(name, first, second)


def test_records_of_different_types_are_unequal(name):
    record = RECORDS[name][0]()
    for other_name, (factory, _) in RECORDS.items():
        if other_name != name:
            assert record != factory()
    assert record != getattr(record, FIRST_FIELD[name])
    assert record != None  # noqa: E711


PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy]
    + [lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in PROTOCOLS],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in PROTOCOLS],
)
def test_copies_are_equal(name, duplicate):
    record = RECORDS[name][0]()
    clone = duplicate(record)
    assert type(clone) is type(record)
    assert clone == record
    assert_equal_hashes(name, clone, record)
    assert repr(clone) == repr(record)


def test_repr_is_frozen(name):
    factory, expected = RECORDS[name]
    assert repr(factory()) == expected


def test_results_without_diagnostics_have_their_own_dict():
    first, second = OracleResult(0.5, 0.5, -1.0, 0.5), OracleResult(0.5, 0.5, -1.0, 0.5)
    assert first.diagnostics == {}
    assert first.diagnostics is not second.diagnostics


def test_no_module_imports_dataclasses():
    for path in sorted(Path(wellpol.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in {m.split(".")[0] for m in modules}, path.name
