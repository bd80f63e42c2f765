"""The value-class contract: every value class is immutable, compares by
value and hashes by value unless a field is unhashable (a dict or list)."""

import pytest

from stabgauge.cluster import SymmetryReport
from stabgauge.codebook import get_code
from stabgauge.gauging import DualityReport, SymmetryModel
from stabgauge.pauli import CodeSpec, GeneratorMap, PauliColumn, VerifyReport, verify_stabilizer
from stabgauge.poly import LaurentPoly
from stabgauge.smallscale import (
    CheckReport,
    CosetState,
    DenseLattice,
    GroundspaceReport,
)
from stabgauge.syzygy import CertifyReport, KernelBasis
from stabgauge.torus import CountReport, TorusShape

ONE = LaurentPoly.one(2)
X = LaurentPoly.monomial((1, 0))
BOND = GeneratorMap(2, [[ONE + X]])
PLAIN = GeneratorMap(2, [[ONE]])
MODEL = SymmetryModel(BOND)
SHAPE = TorusShape((2, 2))

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
    (CosetState, lambda: (48, 3, -1), lambda: (48, 3, 1)),
    (KernelBasis, lambda: (BOND, (1, 1), ((ONE,),)), lambda: (BOND, (1, 1), ((X,),))),
    (DenseLattice, lambda: (MODEL, SHAPE), lambda: (MODEL, SHAPE, 12)),
    (CheckReport, lambda: ("intertwining", True, 0.0, {}), lambda: ("intertwining", False, 0.5, {})),
    (GroundspaceReport, lambda: (True, 4, 16, 4, 4, True, True, 4, 3),
     lambda: (False, 4, 16, 4, 2, True, True, 4, 3)),
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
    # a value whose fields hold a dict or a list is unhashable, as its fields are
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


# the repr of each class's first value in FROZEN
REPRS = {
    LaurentPoly: "LaurentPoly(2, '1 + x1')",
    GeneratorMap: "GeneratorMap(dim=2, entries=((LaurentPoly(2, '1 + x1'),),), cols=1)",
    PauliColumn: "PauliColumn(dim=2, q=1, x_block=(LaurentPoly(2, 'x1'),), "
                 "z_block=(LaurentPoly(2, '1'),))",
    CodeSpec: "CodeSpec(name='bond', css=True, "
              "sigma_x=GeneratorMap(dim=2, entries=((LaurentPoly(2, '1'),),), cols=1), "
              "sigma_z=GeneratorMap(dim=2, entries=((LaurentPoly(2, '1 + x1'),),), cols=1), "
              "sigma=None, notes='')",
    VerifyReport: "VerifyReport(passed=False, witness=(0, 1, LaurentPoly(2, '1 + x1')))",
    TorusShape: "TorusShape(lengths=(2, 3))",
    CountReport: "CountReport(shape=TorusShape(lengths=(2, 2)), n_qubits=8, "
                 "n_generator_translates=8, stab_rank=6, k_encoded=2, bulk_term=0, c_constant=2)",
    CertifyReport: "CertifyReport(lengths=(4, 4), kernel_dim=3, span_dim=2, containment=True, "
                   "window=(3, 3), local_kernel_dim=1, local_spanned=True, missing_local=0, "
                   "passed=True)",
    SymmetryModel: "SymmetryModel(constraint_map=GeneratorMap(dim=2, "
                   "entries=((LaurentPoly(2, '1 + x1'),),), cols=1), notes='')",
    DualityReport: "DualityReport(passed=True, forward_match=True, dual_match=True, diff='')",
    SymmetryReport: "SymmetryReport(shape=TorusShape(lengths=(2, 2)), matter_dim=1, gauge_dim=2, "
                    "matter_matches_constraint_cokernel=True, "
                    "gauge_matches_constraint_kernel=True)",
    CosetState: "CosetState(rep=48, sigma=3, sign=-1)",
    KernelBasis: "KernelBasis(parent=GeneratorMap(dim=2, entries=((LaurentPoly(2, '1 + x1'),),), "
                 "cols=1), box=(1, 1), generators=((LaurentPoly(2, '1'),),))",
    DenseLattice: "DenseLattice(model=SymmetryModel(constraint_map=GeneratorMap(dim=2, "
                  "entries=((LaurentPoly(2, '1 + x1'),),), cols=1), notes=''), "
                  "shape=TorusShape(lengths=(2, 2)), cap=20)",
    CheckReport: "CheckReport(name='intertwining', passed=True, max_deviation=0.0, details={})",
    GroundspaceReport: "GroundspaceReport(passed=True, ground_dim_flat=4, "
                       "ground_dim_local_fields=16, holonomy_sectors=4, g_rank=4, "
                       "contained=True, local_exactness=True, kernel_mu_dagger_dim=4, "
                       "image_eta_dagger_dim=3)",
}


def test_reprs_name_every_field():
    assert len(REPRS) == len(FROZEN) == 16
    for cls, fields, _ in FROZEN:
        assert repr(cls(*fields())) == REPRS[cls]


def test_list_built_values_equal_tuple_built_ones():
    """Constructors store canonical containers, whatever iterables they are given."""
    poly = LaurentPoly(2, [(0, 0), (1, 0)])
    assert poly == ONE + X and hash(poly) == hash(ONE + X) and poly + X == ONE
    assert GeneratorMap(2, [[ONE + X], [X]]) == GeneratorMap(2, ((ONE + X,), (X,)))
    assert hash(GeneratorMap(2, [[ONE + X]])) == hash(BOND)
    col = PauliColumn(2, 1, [X], [ONE])
    assert col == PauliColumn(2, 1, (X,), (ONE,)) and col.entries() == (X, ONE)
    basis = KernelBasis(BOND, [1, 1], [[ONE], [X]])
    assert basis == KernelBasis(BOND, (1, 1), ((ONE,), (X,)))
    assert hash(basis) == hash(KernelBasis(BOND, (1, 1), ((ONE,), (X,))))
    assert basis.generators == ((ONE,), (X,)) and basis.box == (1, 1)
    # a code whose sector maps were built from lists verifies like the original
    toric = get_code("toric2d")
    listed = CodeSpec("toric2d", True, GeneratorMap(2, list(map(list, toric.sigma_x.entries))),
                      GeneratorMap(2, list(map(list, toric.sigma_z.entries))))
    assert verify_stabilizer(listed).passed


def test_polynomial_is_not_repeated_like_a_tuple():
    with pytest.raises(TypeError):
        3 * X


@pytest.mark.parametrize("value", [BOND, PauliColumn(2, 1, (X,), (ONE,))],
                         ids=["GeneratorMap", "PauliColumn"])
def test_maps_and_columns_refuse_tuple_arithmetic(value):
    # `+` would concatenate the fields and `*` repeat them
    for op in (lambda: value + value, lambda: value * 2, lambda: 2 * value):
        with pytest.raises(TypeError):
            op()
    # length, iteration and ordering stay those of the tuple of fields
    assert len(value) == len(value._fields)
    assert tuple(value) == tuple(getattr(value, f) for f in value._fields)
