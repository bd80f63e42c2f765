from collections import Counter

import pytest

import stabgauge.cluster as cluster_mod

from naive_oracle import naive_rank, stabilizer_rows
from stabgauge.cluster import (
    build_cluster,
    cluster_self_dual,
    cz_conjugate,
    extra_fields_redundant,
    gauge_sublattice,
    inherited_symmetries,
)
from stabgauge.codebook import get_code
from stabgauge.gf2 import Gf2Basis
from stabgauge.gauging import SymmetryModel, symmetry_model_from_code
from stabgauge.pauli import (
    GeneratorMap,
    normalize_column,
    symplectic_pair,
    verify_stabilizer,
)
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.syzygy import bounded_kernel
from stabgauge.torus import count_logical, instantiate, shape_of


def toric_model():
    return symmetry_model_from_code(get_code("ising2d"))


def cubic_model():
    return symmetry_model_from_code(get_code("fractal_ising"))


def identity_model():
    return SymmetryModel(GeneratorMap.identity(1, 1))


def stabilizers(model):
    return build_cluster(model).generator_columns()


def test_toric_cluster_structure():
    model = toric_model()
    code = build_cluster(model)
    assert (model.matter_q, model.n_constraints) == (1, 2)
    assert (code.name, code.dim, code.q_per_site) == ("cluster", 2, 3)
    matter_stab, gauge_stab = stabilizers(model)[:2]
    assert matter_stab.x_block[0] == LaurentPoly.one(2)
    # Z support on the two gauge types follows the dagger of the constraints
    eta_dag = model.constraint_map.dagger()
    assert matter_stab.z_block[1] == eta_dag.entries[0][0]
    assert matter_stab.z_block[2] == eta_dag.entries[1][0]
    assert gauge_stab.x_block[1] == LaurentPoly.one(2)
    assert gauge_stab.z_block[0] == model.constraint_map.entries[0][0]


@pytest.mark.parametrize("make", [toric_model, cubic_model, identity_model])
def test_all_translate_pairs_commute(make):
    code = build_cluster(make())
    stabs = code.generator_columns()
    for a in stabs:
        for b in stabs:
            assert symplectic_pair(a, b).is_zero()
    assert verify_stabilizer(code).passed


def test_identity_cluster_is_xz_pair():
    got = [
        tuple(str(p) for p in s.x_block) + tuple(str(p) for p in s.z_block)
        for s in stabilizers(identity_model())
    ]
    assert got == [("1", "0", "0", "1"), ("0", "1", "1", "0")]


@pytest.mark.parametrize("make", [toric_model, cubic_model, identity_model])
def test_cz_layer_disentangles_to_single_x(make):
    model = make()
    for s in stabilizers(model):
        out = cz_conjugate(model, s)
        assert all(p.is_zero() for p in out.z_block)
        assert sum(len(p.terms) for p in out.x_block) == 1


def test_inherited_symmetries_toric():
    rep = inherited_symmetries(toric_model(), shape_of((4, 4)))
    # one global X symmetry on the matter sublattice; line symmetries on the
    # gauge sublattice, one per kernel element of the constraint map
    assert rep.matter_dim == 1
    assert rep.gauge_dim == 17
    assert rep.matter_matches_constraint_cokernel
    assert rep.gauge_matches_constraint_kernel


def test_inherited_symmetries_cubic():
    rep = inherited_symmetries(cubic_model(), shape_of((4, 4, 4)))
    assert rep.matter_matches_constraint_cokernel
    assert rep.gauge_matches_constraint_kernel
    # fractal symmetry counts on the (4,4,4) torus, frozen from the kernel oracle
    assert rep.matter_dim == 7
    assert rep.gauge_dim == 71


def test_inherited_symmetries_identity_cluster():
    rep = inherited_symmetries(identity_model(), shape_of((4,)))
    assert rep.matter_dim == 0
    assert rep.gauge_dim == 0


@pytest.mark.parametrize(
    "matter_name, target_name, ks",
    [("ising2d", "toric2d", (2, 2, 2)), ("fractal_ising", "cubic", (6, 14, 30))],
    ids=["toric2d", "cubic"],
)
def test_gauge_matter_sublattice_is_target_after_cz(matter_name, target_name, ks):
    model = symmetry_model_from_code(get_code(matter_name))
    code = gauge_sublattice(model, "matter")
    dim, t = model.dim, model.n_constraints
    assert code.q_per_site == 2 * t
    assert verify_stabilizer(code).passed
    # the CZ layer between each old gauge qubit and its same-type partner
    # turns the result into t bare single-site X types on the old gauge
    # qubits plus the target code on the partners
    pairing = SymmetryModel(GeneratorMap.identity(dim, t))
    stripped = [cz_conjugate(pairing, s) for s in code.generator_columns()]
    bare = [s for s in stripped if any(not p.is_zero() for p in s.x_block[:t] + s.z_block[:t])]
    assert len(bare) == t
    for s in bare:
        assert sum(len(p.terms) for p in s.x_block[:t]) == 1
        assert all(p.is_zero() for p in s.x_block[t:] + s.z_block)
    target = get_code(target_name)
    want = [normalize_column(g.entries()) for g in target.generator_columns()]
    got = [normalize_column(s.x_block[t:] + s.z_block[t:]) for s in stripped if s not in bare]
    assert Counter(got) == Counter(want)
    for L, k in zip((2, 4, 8), ks):
        shape = shape_of((L,) * dim)
        assert count_logical(code, shape).k_encoded == count_logical(target, shape).k_encoded == k


@pytest.mark.parametrize("make", [toric_model, cubic_model, identity_model])
def test_double_sublattice_gauging_self_dual(make):
    assert cluster_self_dual(make())


@pytest.mark.parametrize(
    "which, daggers",
    [("matter", [False]), ("gauge", [True]), ("both", [False, True])],
    ids=["matter", "gauge", "both"],
)
def test_double_gauging_searches_each_kernel_once(monkeypatch, which, daggers):
    searched = []

    def counting_kernel(m, box=None):
        searched.append(m)
        return bounded_kernel(m, box)

    monkeypatch.setattr(cluster_mod, "bounded_kernel", counting_kernel)
    model = cubic_model()
    gauge_sublattice(model, which)
    eta = model.constraint_map
    assert searched == [eta.dagger() if d else eta for d in daggers]


def test_self_dual_is_a_generator_set_check():
    # eta = (1; 1): the dagger (1, 1) has the box-local kernel field (1, 1),
    # so the swapped doubly gauged code has other generators than the
    # cluster, yet with its extra kernel fields it spans the same translates
    model = SymmetryModel(GeneratorMap(1, [[LaurentPoly.one(1)], [LaurentPoly.one(1)]]))
    assert not cluster_self_dual(model)
    t = model.n_constraints

    def swap(block):
        return block[t:] + block[:t]

    both = gauge_sublattice(model, "both")
    swapped = GeneratorMap.from_columns(
        1, both.sigma.rows, [swap(s.z_block) + swap(s.x_block) for s in both.generator_columns()]
    )
    cluster = build_cluster(model).sigma
    for L in (3, 4, 5):
        shape = shape_of((L,))
        a = Gf2Basis(instantiate(swapped.dagger(), shape).data)
        b = Gf2Basis(instantiate(cluster.dagger(), shape).data)
        assert len(a) == len(b)
        assert all(a.contains(v) for v in b.rref())


def test_extra_fields_redundant_on_torus():
    assert extra_fields_redundant(toric_model(), shape_of((4, 4)))
    assert extra_fields_redundant(cubic_model(), shape_of((3, 3, 3)))


def test_extra_fields_redundant_when_terms_fold():
    # the extra kernel field is (1, 1 + x + x^2); on a length-2 circle its
    # terms 1 and x^2 land on one site and cancel, leaving a field in the span
    model = SymmetryModel(
        GeneratorMap(1, [[parse_poly("1 + x^3", 1), parse_poly("1 + x", 1)]])
    )
    assert extra_fields_redundant(model, shape_of((2,)))


def test_cluster_codebook_entries_commute():
    for name in ("cluster_toric", "cluster_cubic"):
        code = get_code(name)
        assert not code.css
        assert verify_stabilizer(code).passed


def test_cluster_counts_match_oracle():
    code = get_code("cluster_toric")
    rows = stabilizer_rows(code, (3, 3))
    n = code.q_per_site * 9
    assert count_logical(code, shape_of((3, 3))).k_encoded == n - naive_rank(rows)
