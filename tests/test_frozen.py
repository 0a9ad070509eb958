"""The frozen value base: binding, immutability, equality and hashing of every model class."""

import math

import numpy as np
import pytest

from homecyber import graph, losses, pricing, reports, scenario, search, simulate
from homecyber.graph import Edge, Frozen, JointDistribution, VulnNode
from homecyber.losses import (
    BusinessLine,
    DegenerateZero,
    Exponential,
    LossPlan,
    RateSumExponential,
    TriggeredGamma,
    TriggeredLognormal,
)
from homecyber.pricing import CTE, GMD, Expectation, Policy, StdDev
from homecyber.reports import Table
from homecyber.scenario import Scenario
from homecyber.search import DeductibleSearchResult, MeanLR, ProposalRow, QuantileLR
from homecyber.simulate import SimulationResult, SummaryStats

# one valid value per class, its fields in order; every field is hashable
VALUES = {
    VulnNode: (3, "router", 0.25),
    Edge: (1, 2, 0.5),
    JointDistribution: ((1, 2), (0.25, 0.75)),
    RateSumExponential: (((1, 0.5), (2, 0.25)),),
    TriggeredLognormal: (6.0, 1.5),
    TriggeredGamma: (2.0, 0.01),
    BusinessLine: (1, "theft", frozenset({1, 2}), TriggeredGamma(2.0, 0.01)),
    DegenerateZero: (),
    Exponential: (0.5,),
    LossPlan: ((0, 3), (0.5, 1.0), ((0,), (True,)), (), (), ()),
    Policy: (1000.0, 50000.0),
    Expectation: (0.4,),
    StdDev: (0.4,),
    GMD: (0.4,),
    CTE: (0.9,),
    Scenario: (None, (), None, "home", 1),
    Table: (("A", "B"), ((1, 2.0),)),
    MeanLR: (0.5,),
    QuantileLR: (0.995, 0.5),
    DeductibleSearchResult: ((0.7, 0.4), 1000.0),
    ProposalRow: ("GMD", 418.0, 50000.0, 100.0, 12.5, None, None),
    SimulationResult: ((1.0, 2.0), (1, 4)),
    SummaryStats: (0.0, 9.0, 2.5, 1.5, ((0.5, 2.0),)),
}
CLASSES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def test_every_value_class_is_listed():
    modules = (graph, losses, pricing, reports, scenario, search, simulate)
    found = {cls for module in modules for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, Frozen)
             and not cls.__name__.startswith("_") and cls is not Frozen}
    assert found == set(VALUES)
    assert len(VALUES) == 23


@CLASSES
def test_no_instance_dict(cls):
    value = cls(*VALUES[cls])
    # SimulationResult caches total_losses in its __dict__
    assert hasattr(value, "__dict__") == (cls is SimulationResult)


def test_simulation_result_caches_its_totals():
    result = SimulationResult(np.array([[1.0, 2.0], [3.0, 4.0]], order="F"), (1, 2))
    totals = result.total_losses
    assert totals.tolist() == [3.0, 7.0]
    assert result.total_losses is totals


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    value = cls(*VALUES[cls])
    before = value.astuple()
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value.astuple() == before


@CLASSES
def test_equal_values_are_equal_and_hash_alike(cls):
    a, b = cls(*VALUES[cls]), cls(*VALUES[cls])
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.astuple() == VALUES[cls]


@pytest.mark.parametrize("cls", [VulnNode, Edge, Policy, Expectation, QuantileLR, Table],
                         ids=lambda cls: cls.__name__)
def test_other_field_values_are_unequal(cls):
    first, *rest = VALUES[cls]
    other = first / 2 if isinstance(first, (int, float)) else ("Z", *first[1:])
    assert cls(first, *rest) != cls(other, *rest)


@pytest.mark.parametrize("a, b", [
    (Expectation(0.4), StdDev(0.4)),
    (StdDev(0.4), GMD(0.4)),
    (Expectation(0.4), GMD(0.4)),
    (MeanLR(0.4), CTE(0.4)),
    (Exponential(0.4), Expectation(0.4)),
    (TriggeredLognormal(1.0, 0.5), TriggeredGamma(1.0, 0.5)),
    (Policy(0.5, 0.5), QuantileLR(0.5, 0.5)),
], ids=lambda v: type(v).__name__)
def test_types_with_the_same_values_are_unequal(a, b):
    assert a.astuple() == b.astuple()
    assert a != b and b != a
    assert not a == b
    assert hash(a) != hash(b)
    assert len({a, b}) == 2


@CLASSES
def test_position_and_keyword_bind_alike(cls):
    args = VALUES[cls]
    by_name = dict(zip(cls.__slots__, args))
    expected = cls(*args)
    assert cls(**by_name) == expected
    assert cls(**dict(reversed(by_name.items()))) == expected
    assert cls(*args[:1], **dict(list(by_name.items())[1:])) == expected


def test_defaults_fill_trailing_fields():
    assert VulnNode(3).astuple() == (3, "", None)
    assert VulnNode(id=3) == VulnNode(3, "", None)
    assert VulnNode(3, entry_prob=0.5) == VulnNode(3, "", 0.5)
    assert VulnNode(3, "a") == VulnNode(id=3, label="a", entry_prob=None)
    with pytest.raises(TypeError):
        VulnNode(label="a")


@CLASSES
def test_missing_extra_or_repeated_fields_raise(cls):
    args, names = VALUES[cls], cls.__slots__
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, bogus=0)
    if names:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], args[1:])))
        if cls is not VulnNode:  # its last two fields have defaults
            with pytest.raises(TypeError):
                cls(*args[:-1])


def test_repr_names_the_type_and_fields():
    assert repr(Policy(1000.0, math.inf)) == "Policy(deductible=1000.0, coverage=inf)"
    assert repr(VulnNode(3)) == "VulnNode(id=3, label='', entry_prob=None)"
    assert repr(DegenerateZero()) == "DegenerateZero()"


def test_checks_run_for_every_binding():
    for build in (lambda: Policy(-1.0, 10.0), lambda: Policy(deductible=-1.0, coverage=10.0),
                  lambda: Policy(coverage=10.0, deductible=-1.0)):
        with pytest.raises(ValueError, match="deductible must be finite and >= 0"):
            build()
    with pytest.raises(ValueError, match="StdDev theta must be finite"):
        StdDev(theta=math.nan)


def test_rate_sum_exponential_sorts_its_rates():
    model = RateSumExponential([(5, 1), (2, 0.5)])
    assert model.rates == ((2, 0.5), (5, 1.0))
    assert all(type(nid) is int and type(rate) is float for nid, rate in model.rates)
    assert model == RateSumExponential(rates=((2, 0.5), (5, 1.0)))


def test_business_line_freezes_its_trigger_set():
    line = BusinessLine(1, "theft", [2, 1, 2], TriggeredGamma(2.0, 0.01))
    assert type(line.trigger_set) is frozenset
    assert line.trigger_set == {1, 2}
    assert line == BusinessLine(1, "theft", frozenset({1, 2}), TriggeredGamma(2.0, 0.01))
    assert hash(line) == hash(BusinessLine(1, "theft", (1, 2), TriggeredGamma(2.0, 0.01)))
