"""Value semantics of the package's record types: equality, hashing, repr
text, immutability, pickle and copy, and ModelSpec's validation."""

import copy
import pickle

import pytest

from halfturn_ice.asm import Asm, SixVertexState, as_asm, stats, to_state
from halfturn_ice.enum_asm import CensusTable, census
from halfturn_ice.exactnum import Cyclo
from halfturn_ice.icemodel import ModelSpec, PartitionResult, partition_function
from halfturn_ice.laurent import LaurentPoly
from halfturn_ice.verify import VerificationReport

GRID = ((0, 1, 0), (1, -1, 1), (0, 1, 0))


def frozen_records():
    asm = Asm(GRID)
    return [asm, to_state(asm), stats(asm), ModelSpec("ht-odd", 1),
            partition_function(ModelSpec("dwbc", 2))]


def test_equal_records_hash_alike():
    for make in (lambda: Asm(GRID), lambda: to_state(Asm(GRID)),
                 lambda: stats(Asm(GRID)), lambda: ModelSpec("dwbc", 3),
                 lambda: partition_function(ModelSpec("dwbc", 1),
                                            {"a": Cyclo(0, 1), "x1": 2, "y1": 3})):
        x, y = make(), make()
        assert x == y and not x != y and hash(x) == hash(y)
        assert len({x, y}) == 1
    assert Asm(GRID) != Asm(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert ModelSpec("dwbc", 2) != ModelSpec("ht-even", 2) != ModelSpec("ht-even", 1)
    # a record never equals a record of another type with the same fields
    assert Asm(GRID) != SixVertexState(GRID) and SixVertexState(GRID) != Asm(GRID)
    assert Asm(GRID) != GRID and ModelSpec("dwbc", 2) != ("dwbc", 2)


def test_mutable_records_compare_by_fields_and_are_unhashable():
    table = census(3, "ht")
    twin = CensusTable(table.order, table.klass, table.weight_var, dict(table.rows),
                       table.count)
    assert twin == table and CensusTable(1, "all", "x") == CensusTable(1, "all", "x")
    assert CensusTable(1, "all", "x") != CensusTable(1, "all", "x", count=1)
    assert CensusTable(1, "all", "x").rows == {}
    assert CensusTable(1, "all", "x").rows is not CensusTable(1, "all", "x").rows
    report = VerificationReport("parity", {"n_max": 3}, 42, "pass", 7, None, 0.5)
    assert report == VerificationReport("parity", {"n_max": 3}, 42, "pass", 7, None, 0.5)
    assert report != VerificationReport("parity", {"n_max": 3}, 42, "pass", 7, None, 0.25)
    for record in (table, report):
        with pytest.raises(TypeError):
            hash(record)


def test_repr_text_is_the_field_listing():
    assert repr(ModelSpec("dwbc", 2)) == "ModelSpec(kind='dwbc', size=2)"
    assert repr(Asm(((1,),))) == "Asm(entries=((1,),))"
    assert repr(SixVertexState(((1,),))) == "SixVertexState(types=((1,),))"
    assert repr(stats(as_asm([[1, 0], [0, 1]]))) == (
        "AsmStats(minus_ones=0, first_column_one_pos=1, central_entry=None)")
    assert repr(partition_function(ModelSpec("dwbc", 1))) == (
        "PartitionResult(value=LaurentPoly(a^2 - a^-2), "
        "model=ModelSpec(kind='dwbc', size=1), state_count=1, normalization='standard')")
    assert repr(CensusTable(2, "all", "x", {(1, None): LaurentPoly.const(1)}, 1)) == (
        "CensusTable(order=2, klass='all', weight_var='x', "
        "rows={(1, None): LaurentPoly(1)}, count=1)")
    assert repr(VerificationReport("ybe", {}, 42, "pass", 3, None, 0.5)) == (
        "VerificationReport(suite_id='ybe', params={}, seed=42, status='pass', "
        "checks_run=3, witness=None, elapsed=0.5)")


def test_frozen_records_refuse_assignment():
    fields = (("entries",), ("types",), ("minus_ones", "first_column_one_pos", "central_entry"),
              ("kind", "size"), ("value", "model", "state_count", "normalization"))
    for record, names in zip(frozen_records(), fields):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
    with pytest.raises(AttributeError):
        Asm(GRID).extra = 1


def test_pickle_and_copy_round_trip():
    records = frozen_records() + [census(3), VerificationReport("ybe", {"n": [1]}, 7, "fail",
                                                                2, {"check": "x"}, 0.1)]
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record
            assert repr(twin) == repr(record)


def test_model_spec_validation_messages():
    with pytest.raises(ValueError, match=r"^unknown model kind 'foo'$"):
        ModelSpec("foo", 1)
    for kind, size, least in (("dwbc", 0, 1), ("ht-even", 0, 1), ("dwbc", -1, 1),
                              ("ht-odd", -1, 0)):
        with pytest.raises(ValueError, match=rf"^{kind} size must be >= {least}, got {size}$"):
            ModelSpec(kind, size)
    assert ModelSpec(kind="ht-odd", size=0).order == 1


def test_partition_result_keeps_fields_and_default():
    assert PartitionResult._fields == ("value", "model", "state_count", "normalization")
    result = PartitionResult(LaurentPoly.const(1), ModelSpec("dwbc", 1), 1)
    assert result.normalization == "standard"
    assert result.to_json_obj() == {"kind": "dwbc", "sizeParam": 1,
                                    "normalization": "standard", "stateCount": 1,
                                    "value": LaurentPoly.const(1).to_json_obj()}
