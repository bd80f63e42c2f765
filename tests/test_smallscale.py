import numpy as np
import pytest
from naive_oracle import naive_gauging_map, naive_pauli_matrix, naive_symmetric_projector

from stabgauge.codebook import get_code
from stabgauge.gauging import NotSymmetricError, SymmetryModel, symmetry_model_from_code
from stabgauge.pauli import GeneratorMap, PauliColumn
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.smallscale import (
    DenseLattice,
    QubitCapExceeded,
    apply_pauli,
    build_G,
    check_claim1,
    check_groundspace_span,
    check_lemma2,
    check_lemma3,
    check_matrix_elements,
    matter_operator_dense,
    symmetric_projector,
)
from stabgauge.torus import shape_of

SHAPE = shape_of((2, 2))


@pytest.fixture(scope="module")
def ising_model():
    return symmetry_model_from_code(get_code("ising2d"))


def trivial_model(dim=1, q=1):
    return SymmetryModel(dim=dim, matter_q=q, constraint_map=GeneratorMap.zero(dim, q, 0))


def single_constraint_model():
    # one matter qubit, one on-site Z constraint: no symmetry at all
    return SymmetryModel(dim=1, matter_q=1, constraint_map=GeneratorMap.identity(1, 1))


def fold_model():
    # the constraint 1 + x^2 folds to zero on a length-2 circle
    return SymmetryModel(
        dim=1, matter_q=1, constraint_map=GeneratorMap.from_rows(1, [[parse_poly("1 + x^2", 1)]])
    )


def ops(model):
    zero = LaurentPoly.zero(model.dim)
    one = LaurentPoly.one(model.dim)
    single_x = PauliColumn(model.dim, 1, (one,), (zero,))
    bond = PauliColumn(model.dim, 1, (zero,), (model.constraint_map.entries[0][0],))
    return single_x, bond


def test_lattice_has_twelve_qubits(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    assert lat.n_total == 12
    assert lat.n_matter == 4 and lat.n_gauge == 8


def test_cap_refuses_cubic_matter_model():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    with pytest.raises(QubitCapExceeded):
        DenseLattice(model, shape_of((2, 2, 2)))


def test_pauli_products_are_involutions(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(1 << lat.n_total)
    for xm, zm in lat.constraint_masks():
        twice = apply_pauli(apply_pauli(vec, xm, zm), xm, zm)
        assert np.max(np.abs(twice - vec)) <= 1e-12


def test_projectors_idempotent_and_commuting(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(1 << lat.n_total)
    masks = lat.constraint_masks()

    def proj(v, pair):
        return 0.5 * (v + apply_pauli(v, *pair))

    for pair in masks:
        once = proj(vec, pair)
        assert np.max(np.abs(proj(once, pair) - once)) <= 1e-12
    a, b = masks[0], masks[1]
    assert np.max(np.abs(proj(proj(vec, a), b) - proj(proj(vec, b), a))) <= 1e-12


def test_raw_gauging_map_norm_pattern(ising_model):
    # each projected basis state has norm^2 = 2^-(number of constraints)
    lat = DenseLattice(ising_model, SHAPE)
    g, info = build_G(lat, normalized=False)
    norms = np.sum(g * g, axis=0)
    assert np.allclose(norms, 2.0 ** (-len(lat.constraint_masks())))


def test_normalization_exponent_is_integer(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    _, info = build_G(lat)
    assert info.norm_exponent == len(lat.constraint_masks()) - info.symmetry_dim
    assert info.norm_exponent == 3


def test_no_constraint_model_gauges_to_identity():
    lat = DenseLattice(trivial_model(q=1), shape_of((3,)))
    g, info = build_G(lat)
    assert np.array_equal(g, np.eye(8))


def test_lemma2_ising(ising_model):
    rep = check_lemma2(ising_model, SHAPE)
    assert rep.passed
    assert rep.max_deviation <= 1e-10
    assert rep.details["symmetry_dim"] == 1


def test_lemma2_no_symmetry_model_gram_is_identity():
    model = single_constraint_model()
    rep = check_lemma2(model, shape_of((2,)))
    assert rep.passed
    lat = DenseLattice(model, shape_of((2,)))
    g, _ = build_G(lat)
    assert np.max(np.abs(g.T @ g - np.eye(4))) <= 1e-10


def test_lemma2_cap_guard():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    with pytest.raises(QubitCapExceeded):
        check_lemma2(model, shape_of((2, 2, 2)))


def test_lemma3_single_x_bond_and_identity(ising_model):
    single_x, bond = ops(ising_model)
    ident = PauliColumn.identity(2, 1)
    for op in (single_x, bond, ident):
        rep = check_lemma3(ising_model, SHAPE, op)
        assert rep.passed and rep.max_deviation <= 1e-10


def test_lemma3_rejects_nonsymmetric(ising_model):
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    with pytest.raises(NotSymmetricError):
        check_lemma3(ising_model, SHAPE, PauliColumn(2, 1, (zero,), (one,)))


def test_claim1_recovers_operators(ising_model):
    single_x, bond = ops(ising_model)
    ident = PauliColumn.identity(2, 1)
    for op in (single_x, bond, ident):
        rep = check_claim1(ising_model, SHAPE, op)
        assert rep.passed and rep.max_deviation <= 1e-10
        assert rep.details["region_injective"]


def test_matrix_elements_randomized(ising_model):
    single_x, bond = ops(ising_model)
    for op in (single_x, bond):
        rep = check_matrix_elements(ising_model, SHAPE, op, trials=20)
        assert rep.passed and rep.max_deviation <= 1e-10


def test_matrix_elements_explicit_states(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    proj = symmetric_projector(lat)
    rng = np.random.default_rng(5)
    psi0 = proj @ rng.standard_normal(16)
    psi0 /= np.linalg.norm(psi0)
    psi1 = rng.standard_normal(16)
    single_x, _ = ops(ising_model)
    rep = check_matrix_elements(ising_model, SHAPE, single_x, psi0=psi0, psi1=psi1)
    assert rep.passed


def test_matrix_elements_rejects_asymmetric_state(ising_model):
    rng = np.random.default_rng(6)
    psi0 = rng.standard_normal(16)
    psi1 = rng.standard_normal(16)
    single_x, _ = ops(ising_model)
    with pytest.raises(ValueError):
        check_matrix_elements(ising_model, SHAPE, single_x, psi0=psi0, psi1=psi1)


def test_groundspace_span_ising(ising_model):
    rep = check_groundspace_span(ising_model, SHAPE)
    assert rep.passed
    # fixtures from the dense reference run: the local fields alone leave the
    # wrapping sectors degenerate, the gauged states fill exactly one of them
    assert rep.ground_dim_flat == 8
    assert rep.ground_dim_local_fields == 32
    assert rep.holonomy_sectors == 4
    assert rep.g_rank == 8
    assert rep.contained and rep.local_exactness
    assert rep.kernel_mu_dagger_dim == 5
    assert rep.image_eta_dagger_dim == 3


def test_groundspace_no_constraints_trivially_spanned():
    rep = check_groundspace_span(trivial_model(q=1), shape_of((3,)))
    assert rep.passed
    assert rep.holonomy_sectors == 1


def test_reports_invariant_under_qubit_relabeling(ising_model):
    rng = np.random.default_rng(11)
    perm = tuple(int(i) for i in rng.permutation(12))
    base = check_lemma2(ising_model, SHAPE)
    shuffled = check_lemma2(ising_model, SHAPE, perm=perm)
    assert base.passed == shuffled.passed
    assert shuffled.max_deviation <= 1e-10
    assert base.details == shuffled.details


def test_claim1_adjacency_follows_gauss_law_masks():
    # on a length-2 circle the Gauss-law generator of a matter qubit flips no
    # gauge qubit, so the twirl region cannot be injective
    model = fold_model()
    single_x, _ = ops(model)
    rep = check_claim1(model, shape_of((2,)), single_x)
    assert rep.details["region_injective"] is False
    assert not rep.passed


def test_claim1_region_holds_no_untouched_gauge_qubit():
    # on a length-2 circle the two terms of 1 + x^2 cancel, so the Gauss-law
    # generator flips no gauge qubit and single X gauges to no Z part
    model = fold_model()
    single_x, _ = ops(model)
    rep = check_claim1(model, shape_of((2,)), single_x)
    assert rep.details["region_matter"] == 1
    assert rep.details["region_gauge"] == 0


def test_apply_pauli_acts_on_blocks_column_by_column(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    rng = np.random.default_rng(3)
    block = rng.standard_normal((1 << lat.n_total, 5))
    x_only, _ = lat.constraint_masks()[0]
    z_only = lat.lift_mask(0b101 << lat.n_matter)
    for xm, zm in ((0, 0), (x_only, 0), (0, z_only), (x_only, z_only | 1)):
        by_column = np.column_stack([apply_pauli(block[:, j], xm, zm) for j in range(5)])
        assert np.array_equal(apply_pauli(block, xm, zm), by_column)


def _oracle_lattices():
    ising = symmetry_model_from_code(get_code("ising2d"))
    perm = tuple(int(i) for i in np.random.default_rng(11).permutation(12))
    return [
        DenseLattice(ising, SHAPE),
        DenseLattice(symmetry_model_from_code(get_code("toric2d")), SHAPE),
        DenseLattice(fold_model(), shape_of((2,))),
        DenseLattice(ising, SHAPE, perm=perm),
    ]


ORACLE_LATTICES = _oracle_lattices()
ORACLE_IDS = ["ising2d", "toric2d", "fold", "ising2d-permuted"]


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_matter_operators_match_kronecker_products(lat):
    single_x, bond = ops(lat.model)
    dim = lat.model.dim
    mixed = PauliColumn(dim, 1, (LaurentPoly.one(dim),), (LaurentPoly.one(dim),))
    for op in (single_x, bond, mixed, PauliColumn.identity(dim, 1)):
        expected = naive_pauli_matrix(lat.n_matter, *lat.raw_masks(op))
        assert np.array_equal(matter_operator_dense(lat, op), expected)


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_gauging_map_matches_coset_form(lat):
    masks = lat.constraint_masks()
    assert all(zm == 0 for _, zm in masks)
    g, _ = build_G(lat, normalized=False)
    expected = naive_gauging_map(lat.n_matter, lat.n_total, [xm for xm, _ in masks], lat.perm)
    assert np.array_equal(g, expected)


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_symmetric_projector_matches_group_average(lat):
    masks = [xm for xm, _ in lat.constraint_masks()]
    expected = naive_symmetric_projector(lat.n_matter, masks, lat.perm)
    assert np.array_equal(symmetric_projector(lat), expected)
