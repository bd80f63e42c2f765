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
from stabgauge.gauging import SymmetryModel, symmetry_model_from_code
from stabgauge.pauli import (
    GeneratorMap,
    PauliColumn,
    normalize_column,
    symplectic_pair,
    verify_stabilizer,
)
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.syzygy import bounded_kernel
from stabgauge.torus import shape_of


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


def test_gauge_matter_sublattice_is_toric_after_cz():
    model = toric_model()
    res = gauge_sublattice(model, "matter")
    code = res.code
    assert code.q_per_site == 4
    assert verify_stabilizer(code).passed
    # CZ layer between each old gauge qubit and its same-type partner turns
    # the result into single-site X types plus the toric code on the partners
    t = model.n_constraints
    cols = code.generator_columns()
    stripped = []
    for s in cols:
        x_old, x_new = list(s.x_block[:t]), list(s.x_block[t:])
        z_old, z_new = list(s.z_block[:t]), list(s.z_block[t:])
        for j in range(t):
            z_new[j] = z_new[j] + x_old[j]
            z_old[j] = z_old[j] + x_new[j]
        stripped.append(PauliColumn(model.dim, 2 * t, tuple(x_old + x_new), tuple(z_old + z_new)))
    # expected generator content: one star-of-X on the partners, two bare X
    # on the old gauge qubits, one plaquette-Z on the partners
    toric = get_code("toric2d")
    summaries = set()
    for s in stripped:
        on_old = sum(len(p.terms) for p in (s.x_block[:t] + s.z_block[:t]))
        on_new = tuple(p for p in (s.x_block[t:] + s.z_block[t:]))
        summaries.add((on_old, sum(len(p.terms) for p in on_new)))
    assert (1, 0) in summaries  # bare single-site X types
    got_new_cols = []
    for s in stripped:
        if sum(len(p.terms) for p in (s.x_block[:t] + s.z_block[:t])) == 0:
            got_new_cols.append(normalize_column(s.x_block[t:] + s.z_block[t:]))
    want = {
        tuple(normalize_column(tuple(toric.sigma_x.column(0)) + (LaurentPoly.zero(2),) * 2)),
        tuple(normalize_column((LaurentPoly.zero(2),) * 2 + tuple(toric.sigma_z.column(0)))),
    }
    assert {tuple(c_) for c_ in got_new_cols} == want


@pytest.mark.parametrize("make", [toric_model, cubic_model, identity_model])
def test_double_sublattice_gauging_self_dual(make):
    assert cluster_self_dual(make())


def test_double_gauging_searches_each_kernel_once(monkeypatch):
    searched = []

    def counting_kernel(m, box=None):
        searched.append(m)
        return bounded_kernel(m, box)

    monkeypatch.setattr(cluster_mod, "bounded_kernel", counting_kernel)
    model = cubic_model()
    gauge_sublattice(model, "both")
    eta = model.constraint_map
    assert searched == [eta, eta.dagger()]


def test_extra_fields_redundant_on_torus():
    assert extra_fields_redundant(toric_model(), shape_of((4, 4)))
    assert extra_fields_redundant(cubic_model(), shape_of((3, 3, 3)))


def test_extra_fields_redundant_when_terms_fold():
    # the extra kernel field is (1, 1 + x + x^2); on a length-2 circle its
    # terms 1 and x^2 land on one site and cancel, leaving a field in the span
    model = SymmetryModel(
        GeneratorMap.from_rows(1, [[parse_poly("1 + x^3", 1), parse_poly("1 + x", 1)]])
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
    from stabgauge.torus import count_logical

    assert count_logical(code, shape_of((3, 3))).k_encoded == n - naive_rank(rows)
