"""The value-class contract: frozen classes are immutable and hash and
compare by value; mutable ones compare by value and are unhashable."""

import pytest

from stabgauge.cluster import SymmetryReport
from stabgauge.gauging import DualityReport, SymmetryModel
from stabgauge.pauli import CodeSpec, GeneratorMap, PauliColumn, VerifyReport
from stabgauge.poly import LaurentPoly
from stabgauge.smallscale import (
    CheckReport,
    CosetState,
    DenseLattice,
    GaugeMapInfo,
    GroundspaceReport,
    MatterMatrix,
)
from stabgauge.syzygy import CertifyReport, KernelBasis
from stabgauge.torus import CountReport, TorusShape

ONE = LaurentPoly.one(2)
X = LaurentPoly.monomial((1, 0))
BOND = GeneratorMap.from_rows(2, [[ONE + X]])
PLAIN = GeneratorMap.from_rows(2, [[ONE]])

# class, then two field tuples that differ; each is built afresh per call
FROZEN = [
    (LaurentPoly, lambda: (2, frozenset({(0, 0), (1, 0)})), lambda: (2, frozenset({(0, 0)}))),
    (GeneratorMap, lambda: (2, ((ONE + X,),), 1), lambda: (2, ((ONE,),), 1)),
    (PauliColumn, lambda: (2, 1, (X,), (ONE,)), lambda: (2, 1, (ONE,), (X,))),
    (CodeSpec, lambda: ("bond", True, PLAIN, BOND, None, ""),
     lambda: ("bond", True, BOND, PLAIN, None, "")),
    (VerifyReport, lambda: (False, (0, 1, ONE + X)), lambda: (False, (0, 1, X))),
    (TorusShape, lambda: ((2, 3),), lambda: ((3, 2),)),
    (CountReport, lambda: (TorusShape((2, 2)), 8, 8, 6, 2, 0, 2),
     lambda: (TorusShape((2, 2)), 8, 8, 6, 2, None, None)),
    (CertifyReport, lambda: ((4, 4), 3, 2, True, (3, 3), 1, True, 0, True),
     lambda: ((4, 4), 3, 2, True, (3, 3), 1, False, 1, False)),
    (SymmetryModel, lambda: (BOND, ""), lambda: (BOND, "bond")),
    (DualityReport, lambda: (True, True, True, ""), lambda: (False, True, False, "diff")),
    (SymmetryReport, lambda: (TorusShape((2, 2)), 1, 2, True, True),
     lambda: (TorusShape((2, 2)), 1, 2, True, False)),
    (CosetState, lambda: ((0, 3), (1, -1), -2), lambda: ((0, 3), (1, 1), -2)),
    (MatterMatrix, lambda: (({0: 1}, {1: -1}), 0), lambda: (({0: 1}, {1: 1}), 0)),
    (GaugeMapInfo, lambda: (2, 1), lambda: (1, 2)),
]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, fields, other", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_frozen_value_class_contract(cls, fields, other):
    a, b, c = cls(*fields()), cls(*fields()), cls(*other())
    assert a == b and not a != b
    # a class whose fields hold dicts (MatterMatrix) is unhashable, as its fields are
    if _hashable(fields()):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert a != c
    assert a.__eq__(object()) is NotImplemented
    name = a._fields[0]
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) is before
    assert a == b


MODEL = SymmetryModel(BOND)
SHAPE = TorusShape((2, 2))

MUTABLE = [
    (KernelBasis, lambda: (BOND, (1, 1), [(ONE,)]), lambda: (BOND, (1, 1), [(X,)])),
    (DenseLattice, lambda: (MODEL, SHAPE), lambda: (MODEL, SHAPE, 12, (1, 0, 2, 3, 4, 5, 6, 7))),
    (CheckReport, lambda: ("intertwining", True, 0.0, {}), lambda: ("intertwining", False, 0.5, {})),
    (GroundspaceReport, lambda: (True, 4, 16, 4, 4, True, True, 4, 3),
     lambda: (False, 4, 16, 4, 2, True, True, 4, 3)),
]


@pytest.mark.parametrize("cls, fields, other", MUTABLE, ids=[c.__name__ for c, _, _ in MUTABLE])
def test_mutable_value_class_contract(cls, fields, other):
    a, b, c = cls(*fields()), cls(*fields()), cls(*other())
    assert a == b and a != c
    assert a.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)
    name = next(n for n in a._fields if getattr(a, n) != getattr(c, n))
    setattr(b, name, getattr(c, name))
    assert getattr(b, name) is getattr(c, name) and a != b


def test_reprs_name_every_field():
    assert repr(TorusShape((2, 3))) == "TorusShape(lengths=(2, 3))"
    assert repr(GaugeMapInfo(2, 1)) == "GaugeMapInfo(norm_exponent=2, symmetry_dim=1)"
    assert repr(LaurentPoly(2, frozenset({(0, 0), (1, 0)}))) == "LaurentPoly(2, '1 + x1')"
    assert repr(DenseLattice(MODEL, SHAPE)).startswith("DenseLattice(model=SymmetryModel(")
