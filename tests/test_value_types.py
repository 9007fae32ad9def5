"""The value types of every module are named tuples, and importing the
package generates no code for them.

Each of the fifteen record types keeps what a frozen record promises: its
field names, order and defaults, fields that cannot be assigned or
deleted, equality and hash over the fields, and the ``Name(field=value)``
repr.  Per-type coercions and error messages are tested beside each
module's other tests; here, that ``_make`` and ``_replace`` check and
coerce as the constructor does.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gridsyn
from gridsyn.cores import Core
from gridsyn.cubes import Cover, MintermSet, PhaseVector
from gridsyn.decompose import VerifyResult, decompose
from gridsyn.gridplot import GridDag, build_grid_dag
from gridsyn.netlist import Netlist
from gridsyn.planar import PlanarSurvey, TemplateGrid, full_template, survey_planarity
from gridsyn.spectra import FullRankSet
from gridsyn.tcells import (
    CellUse,
    MapResult,
    SFImpl,
    TCellLibrary,
    ThresholdCell,
    library_inventory,
    map_netlist,
    map_sf,
)

ROOT = Path(__file__).resolve().parent.parent

_WALK = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import gridsyn
for mod in pkgutil.iter_modules(gridsyn.__path__):
    importlib.import_module("gridsyn." + mod.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_every_module_loads_no_dataclasses():
    """The package walk perfbench makes, in a fresh interpreter, loads no
    ``dataclasses``; modules loaded before the walk, as by site packages, do
    not count."""
    proc = subprocess.run(
        [sys.executable, "-c", _WALK],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = set(json.loads(proc.stdout))
    modules = {f"gridsyn.{mod.name}" for mod in pkgutil.iter_modules(gridsyn.__path__)}
    assert "gridsyn.cli" in modules and modules <= loaded
    assert "dataclasses" not in loaded


def test_no_module_defines_a_dataclass():
    classes = []
    for mod in pkgutil.iter_modules(gridsyn.__path__):
        module = importlib.import_module(f"gridsyn.{mod.name}")
        classes += [v for v in vars(module).values() if isinstance(v, type)]
    assert Cover in classes and Netlist in classes
    assert [c for c in classes if hasattr(c, "__dataclass_fields__")] == []


CARRY = Cover(("a", "b", "c"), ("11-", "1-1", "-11"))


def _samples():
    """(type, field names, field defaults, a function building one value)
    for each record type; the function builds its value from fresh parts."""
    return [
        (Cover, ("input_names", "cubes"), {}, lambda: Cover(["a", "b", "c"], list(CARRY.cubes))),
        (MintermSet, ("n", "bits"), {"bits": 0}, lambda: MintermSet(3, 0b11101000)),
        (PhaseVector, ("phases",), {}, lambda: PhaseVector([1, 0, 1])),
        (FullRankSet, ("n", "ranks"), {}, lambda: FullRankSet(3, [2, 3])),
        (
            Core,
            ("base", "cubes", "z", "flips"),
            {},
            lambda: Core(Cover(CARRY.input_names, CARRY.cubes), 0b101, 0b101, 0b1),
        ),
        (
            VerifyResult,
            ("equivalent", "witness", "exhaustive", "checked"),
            {"witness": None, "exhaustive": True, "checked": 0},
            lambda: VerifyResult(False, (0, 1, 1), True, 8),
        ),
        (
            GridDag,
            ("n", "order", "phases", "classes", "link_count"),
            {},
            lambda: build_grid_dag(MintermSet(3, 0b11101000), (2, 0, 1), PhaseVector((1, 0, 0))),
        ),
        (Netlist, ("input_names", "nodes", "output"), {}, lambda: decompose(CARRY)),
        (TemplateGrid, ("n", "links"), {}, lambda: full_template(3)),
        (
            PlanarSurvey,
            ("n", "total", "planar", "nonplanar_witnesses"),
            {},
            lambda: survey_planarity(3),
        ),
        (ThresholdCell, ("arity", "threshold"), {}, lambda: ThresholdCell(3, 2)),
        (
            TCellLibrary,
            ("max_arity", "pitch_costs", "inverter_cost"),
            {"inverter_cost": 1.0},
            lambda: library_inventory(3),
        ),
        (SFImpl, ("arity", "terms"), {}, lambda: map_sf(FullRankSet(4, {1, 3}))),
        (
            CellUse,
            ("name", "arity", "threshold", "count", "unit_cost"),
            {},
            lambda: CellUse("t2of3", 3, 2, 4, 3.0),
        ),
        (
            MapResult,
            ("netlist", "cells", "total_pitches"),
            {},
            lambda: map_netlist(decompose(CARRY), library_inventory(3)),
        ),
    ]


SAMPLES = _samples()
IDS = [cls.__name__ for cls, *_ in SAMPLES]


def test_fifteen_types():
    assert len({cls for cls, *_ in SAMPLES}) == 15


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_fields_order_and_defaults(cls, fields, defaults, make):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    value = make()
    assert type(value) is cls
    assert tuple(value) == tuple(getattr(value, f) for f in fields)


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, defaults, make):
    value = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, fields, defaults, make):
    a, b = make(), make()
    assert a == b and not a != b
    assert a == tuple(getattr(a, f) for f in fields)
    if cls is TCellLibrary:  # its pitch table is a dict
        with pytest.raises(TypeError):
            hash(a)
        return
    # a frozen record hashed the tuple of its fields, as a tuple does
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_repr_names_the_fields(cls, fields, defaults, make):
    value = make()
    body = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_only_cover_has_an_instance_dict(cls, fields, defaults, make):
    # Cover's dict holds its cached bit_cubes; every other value is the tuple alone
    assert hasattr(make(), "__dict__") is (cls is Cover)


def test_verify_result_truth_is_its_equivalence():
    # a 4-tuple is always true; the result is true only when equivalent
    assert bool(VerifyResult(True)) is True
    assert bool(VerifyResult(False)) is False
    assert bool(VerifyResult(False, (0, 1), False, 100)) is False


def test_cell_use_count_is_the_field():
    use = CellUse("t1of2", 2, 1, 3, 2.0)
    assert use.count == 3 and use.total_cost == 6.0
    fields = {"name": "t1of2", "arity": 2, "threshold": 1, "count": 3, "unit_cost": 2.0}
    assert use._asdict() == fields


@pytest.mark.parametrize("cls, fields, defaults, make", SAMPLES, ids=IDS)
def test_make_and_replace_rebuild_the_value(cls, fields, defaults, make):
    value = make()
    for rebuilt in (cls._make(iter(value)), value._replace()):
        assert type(rebuilt) is cls and rebuilt == value


def test_minterm_set_make_takes_the_two_fields():
    # the tuple's own _make checks the field count with len, which counts minterms
    assert MintermSet._make((2, 1)) == MintermSet(2, 1)


#: Per validating type that refuses a field: a value, and a change its constructor refuses.
REFUSED = [
    (Cover(("a", "b"), ("1-",)), {"cubes": ("xyz",)}),
    (MintermSet(2, 5), {"n": -3}),
    (FullRankSet(2, {1}), {"ranks": [9]}),
    (Core(CARRY, 0b101, 0b101, 0b1), {"flips": 0b10}),
    (ThresholdCell(3, 2), {"threshold": 7}),
    (TCellLibrary(2, {}), {"max_arity": 0}),
]


@pytest.mark.parametrize(
    "value, change", REFUSED, ids=[type(value).__name__ for value, _ in REFUSED]
)
def test_replace_refuses_what_the_constructor_refuses(value, change):
    with pytest.raises(ValueError) as built:
        type(value)(**{**value._asdict(), **change})
    with pytest.raises(ValueError) as replaced:
        value._replace(**change)
    assert str(replaced.value) == str(built.value)


def test_replace_coerces_as_the_constructor_does():
    assert PhaseVector((True,))._replace(phases=[1, 0]).phases == (True, False)
    assert FullRankSet(2, {1})._replace(ranks=[2]).ranks == frozenset({2})
    assert Cover(("a",), ("1",))._replace(cubes=["0"]).cubes == ("0",)
