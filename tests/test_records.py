"""The result types behave as read-only value records.

One instance of each of the five types on the ``import wellpol`` path, of
the grid oracle's result and of the two-field ``GridOracleConfig`` that the
benchmark still passes to ``oracle_study``, is built twice from the same
inputs through its own constructor: a breakdown from its state, an oracle
result from its well, point count and level count, and each limit study
from no input at all, running the study again.  Every field is read-only,
equal inputs give equal records with equal hashes (``OracleResult`` holds a
dict, so it has no hash), records of different types never compare equal,
``copy``, ``deepcopy`` and a pickle round trip at every protocol give back
an equal record, and ``repr`` lists every field in declaration order,
derived fields included, in the ``Type(name=value, ...)`` format.  They are
all ``_Record``s, tuples whose fields are properties, so no module of the
package imports ``dataclasses``.  No record has a ``__dict__``, equals a
plain tuple of its fields or orders against another, and a pickle written
by the slot-based records that came before still loads, but for an oracle
result's, which held the config record that derived the box and ground
state.
"""

import ast
import copy
import math
import pickle
from pathlib import Path

import pytest

import wellpol
from wellpol.dalgarno_lewis import PolarizabilityBreakdown
from wellpol.errors import DomainError
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
        lambda: PolarizabilityBreakdown(_state()),
        f"PolarizabilityBreakdown(state={STATE_REPR}, alpha1_prime=0.29074779315276555, "
        "alpha2_prime=0.2952128562352164, alpha2_t_prime=-0.359013914299584, "
        "alpha_apr_prime=0.39528811326486124, alpha_prime=0.585960649387982, "
        "t_ratio=2.216118833298821)",
    ),
    "DeltaLimitSequence": (
        DeltaLimitSequence,
        "DeltaLimitSequence(a_values=(1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, "
        "0.0078125, 0.00390625, 0.001953125, 0.0009765625, 0.00048828125), "
        "alpha1_scaled=(1.4276427147455226, 1.3302281739024164, 1.2800425543084286, "
        "1.259643381971196, 1.2527800617418234, 1.2507504648986072, 1.2501952625814767, "
        "1.250049821366244, 1.2500125843608223, 1.2500031624302248, 1.2500007926635437, "
        "1.2500001984237334), alpha2_scaled=(0.10181651386618175, 0.014905701726321772, "
        "0.0016840622629258383, 0.00015244220022277665, 1.1783863071839562e-05, "
        "8.261559733490853e-07, 5.482202526831821e-08, 3.532866266526528e-09, "
        "2.242473278942218e-10, 1.4124925572626657e-11, 8.862584253268173e-13, "
        "5.549945061193828e-14), v0_values=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, "
        "128.0, 256.0, 512.0, 1024.0), alpha1_extrapolated=1.2499999999999996, "
        "alpha2_extrapolated=-1.6744909137803203e-18)",
    ),
    "InfiniteWellLimitReport": (
        InfiniteWellLimitReport,
        "InfiniteWellLimitReport(epsilons=(0.001, 1e-05, 1e-07), "
        "alpha1_values=(4.061893110386949e-13, 4.0529376517266896e-21, "
        "4.052848268128545e-29), alpha2_values=(0.07040384417177212, "
        "0.07022652185718686, 0.07022475145315407), alpha2_t_values=(-0.1327549638003077, "
        "-0.13242100571459753, -0.13241766743398073), alpha1_limit=4.1029191445300156e-19, "
        "alpha2_limit=0.07022473357056984, alpha2_t_limit=-0.13241763371410584)",
    ),
    "GridOracleConfig": (
        lambda: GridOracleConfig(well_R=2.0, num_points=500),
        "GridOracleConfig(well_R=2.0, num_points=500)",
    ),
    "OracleResult": (
        lambda: OracleResult(None, num_points=500),
        "OracleResult(well_R=None, num_points=500, levels=2, box_half_width=1, ground=None, "
        "alpha_sum=0.07022588343619435, "
        "alpha_curvature=0.07022473357057062, ground_energy_dimless=2.467393047410425, "
        "richardson_alpha=0.07022473357035518, diagnostics={'grid_num_points_actual': 501, "
        "'grid_box_half_width': 1, 'grid_spacing': 0.00398406374501992, "
        "'sum_solve_residual': 1.1028258570224799e-16, "
        "'spectral_ground_energy': 2.4674011002723546, "
        "'refine_grid_multipliers': (251, 502, 1004), 'refine_grid_sizes': (501, 1003, 2007), "
        "'refine_alpha_per_level': (0.07022588343619435, 0.07022502103600138, "
        "0.07022480543671589), 'refine_ground_energy_per_level': (2.467393047410425, "
        "2.4673990870548894, 2.467400596967854), 'refine_observed_order': 2.0000051039598414}, "
        "route_gap=3.0678475655875824e-12)",
    ),
}
# The first field of each type, which every instance has.
FIRST_FIELD = {
    "WellSpec": "half_width",
    "GroundState": "gamma0",
    "PolarizabilityBreakdown": "state",
    "DeltaLimitSequence": "a_values",
    "InfiniteWellLimitReport": "epsilons",
    "GridOracleConfig": "well_R",
    "OracleResult": "well_R",
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


def test_studies_never_share_a_diagnostics_dict():
    first = OracleResult(None, num_points=500)
    for second in (OracleResult(*first[:3]), copy.copy(first), copy.deepcopy(first)):
        assert second.diagnostics == first.diagnostics
        assert second.diagnostics is not first.diagnostics


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


# Every field of each type, in declaration order.
FIELDS = {
    "WellSpec": ("half_width", "depth", "mass", "charge", "hbar"),
    "GroundState": ("gamma0", "beta0", "R", "n_prime_sq", "energy_dimless"),
    "PolarizabilityBreakdown": ("state", "alpha1_prime", "alpha2_prime", "alpha2_t_prime",
                                "alpha_apr_prime", "alpha_prime", "t_ratio"),
    "DeltaLimitSequence": ("a_values", "alpha1_scaled", "alpha2_scaled", "v0_values",
                           "alpha1_extrapolated", "alpha2_extrapolated"),
    "InfiniteWellLimitReport": ("epsilons", "alpha1_values", "alpha2_values",
                                "alpha2_t_values", "alpha1_limit", "alpha2_limit",
                                "alpha2_t_limit"),
    "GridOracleConfig": ("well_R", "num_points"),
    "OracleResult": ("well_R", "num_points", "levels", "box_half_width", "ground", "alpha_sum",
                     "alpha_curvature", "ground_energy_dimless", "richardson_alpha",
                     "diagnostics", "route_gap"),
}
# pickle.dumps(record, protocol=4) of each RECORDS factory but the oracle
# result's, written by the slot-based records that preceded the tuple-based ones.
PARENT_PICKLES = {
    "WellSpec": (
        b'\x80\x04\x95X\x00\x00\x00\x00\x00\x00\x00\x8c\x15wellpol.well_spectrum\x94\x8c'
        b'\x08WellSpec\x94\x93\x94(G?\xe0\x00\x00\x00\x00\x00\x00G@\x00\x00\x00\x00\x00'
        b'\x00\x00G?\xf0\x00\x00\x00\x00\x00\x00G\xbf\xf0\x00\x00\x00\x00\x00\x00G?\xf0'
        b'\x00\x00\x00\x00\x00\x00t\x94R\x94.'
    ),
    "GroundState": (
        b'\x80\x04\x95H\x00\x00\x00\x00\x00\x00\x00\x8c\x15wellpol.well_spectrum\x94\x8c'
        b'\x0bGroundState\x94\x93\x94G?\xf0\x00\x00\x00\x00\x00\x00G?\xf8\xeb$\\\xbe\xe3'
        b'\xa6G?\xfd\x9c\xf0\xf1%\xcc*\x87\x94R\x94.'
    ),
    "PolarizabilityBreakdown": (
        b'\x80\x04\x95\x81\x00\x00\x00\x00\x00\x00\x00\x8c\x16wellpol.dalgarno_lewis\x94'
        b'\x8c\x17PolarizabilityBreakdown\x94\x93\x94\x8c\x15wellpol.well_spectrum\x94'
        b'\x8c\x0bGroundState\x94\x93\x94G?\xf0\x00\x00\x00\x00\x00\x00G?\xf8\xeb$\\\xbe'
        b'\xe3\xa6G?\xfd\x9c\xf0\xf1%\xcc*\x87\x94R\x94\x85\x94R\x94.'
    ),
    "DeltaLimitSequence": (
        b'\x80\x04\x95,\x00\x00\x00\x00\x00\x00\x00\x8c\x0ewellpol.limits\x94\x8c\x12Del'
        b'taLimitSequence\x94\x93\x94)R\x94.'
    ),
    "InfiniteWellLimitReport": (
        b'\x80\x04\x951\x00\x00\x00\x00\x00\x00\x00\x8c\x0ewellpol.limits\x94\x8c\x17Inf'
        b'initeWellLimitReport\x94\x93\x94)R\x94.'
    ),
    "GridOracleConfig": (
        b'\x80\x04\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\x13wellpol.grid_oracle\x94\x8c'
        b'\x10GridOracleConfig\x94\x93\x94G@\x00\x00\x00\x00\x00\x00\x00M\xf4\x01\x86'
        b'\x94R\x94.'
    ),
}
# The same of the hard-wall OracleResult at 500 points, which pickled its
# inputs as (GridOracleConfig(None, 500), 2).
ORACLE_RESULT_PICKLE = (
    b'\x80\x04\x95M\x00\x00\x00\x00\x00\x00\x00\x8c\x13wellpol.grid_oracle\x94\x8c'
    b'\x0cOracleResult\x94\x93\x94h\x00\x8c\x10GridOracleConfig\x94\x93\x94NM\xf4'
    b'\x01\x86\x94R\x94K\x02\x86\x94R\x94.'
)


def test_no_record_has_a_dict(name):
    record = RECORDS[name][0]()
    assert not hasattr(record, "__dict__")


def test_records_are_unequal_to_a_plain_tuple_of_their_fields(name):
    record = RECORDS[name][0]()
    values = tuple(getattr(record, field) for field in FIELDS[name])
    assert repr(record) == f"{name}(" + ", ".join(
        f"{field}={value!r}" for field, value in zip(FIELDS[name], values)) + ")"
    assert record != values and values != record
    assert not record == values and not values == record


def test_records_are_unordered(name):
    factory = RECORDS[name][0]
    first, second = factory(), factory()
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(first, second)


@pytest.mark.parametrize("name", list(PARENT_PICKLES))
def test_pickles_of_the_slot_records_still_load(name):
    record, fresh = pickle.loads(PARENT_PICKLES[name]), RECORDS[name][0]()
    assert type(record) is type(fresh)
    assert record == fresh


def test_old_oracle_result_pickle_is_refused():
    # It rebuilt the study from (config, levels), which now arrive as well_R
    # and num_points: the level count 2 is refused as a point count.
    with pytest.raises(DomainError, match="^num_points must be an integer >= 500, got 2$"):
        pickle.loads(ORACLE_RESULT_PICKLE)
