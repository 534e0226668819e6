"""The result types behave as read-only value records.

One instance of each of the six types on the ``import wellpol`` path is
built twice from the same inputs.  Every field is read-only, equal inputs
give equal records with equal hashes, records of different types never
compare equal, ``copy``, ``deepcopy`` and a pickle round trip at every
protocol give back an equal record, and ``repr`` lists every field in
declaration order, derived fields included, in the ``Type(name=value, ...)``
format.
"""

import copy
import math
import pickle

import pytest

from wellpol.dalgarno_lewis import PhiReduced, PolarizabilityBreakdown
from wellpol.limits import DeltaLimitSequence, InfiniteWellLimitReport
from wellpol.well_spectrum import GroundState, WellSpec

STATE_REPR = (
    "GroundState(gamma0=1.0, beta0=1.5574077246549023, R=1.8508157176809257, "
    "n_prime_sq=0.6089790492304309, energy_dimless=-2.42551882081476)"
)


def _state():
    return GroundState(1.0, math.tan(1.0), math.hypot(1.0, math.tan(1.0)))


# name -> (factory, repr frozen from the frozen-dataclass implementation)
RECORDS = {
    "WellSpec": (
        lambda: WellSpec(0.5, 2.0, 1.0, -1.0),
        "WellSpec(half_width=0.5, depth=2.0, mass=1.0, charge=-1.0, hbar=1.0)",
    ),
    "GroundState": (_state, STATE_REPR),
    "PhiReduced": (
        lambda: PhiReduced(_state()),
        f"PhiReduced(state={STATE_REPR}, c_coefficient=-2.4674011002723395)",
    ),
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
}
# The first field of each type, which every instance has.
FIRST_FIELD = {
    "WellSpec": "half_width",
    "GroundState": "gamma0",
    "PhiReduced": "state",
    "PolarizabilityBreakdown": "alpha1_prime",
    "DeltaLimitSequence": "a_values",
    "InfiniteWellLimitReport": "epsilons",
}


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
    assert hash(first) == hash(second)


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
    assert hash(clone) == hash(record)
    assert repr(clone) == repr(record)


def test_repr_is_frozen(name):
    factory, expected = RECORDS[name]
    assert repr(factory()) == expected
