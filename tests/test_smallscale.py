import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import naive_oracle as oracle
from naive_oracle import (
    CosetColumns,
    naive_gauging_map,
    naive_pauli_matrix,
    naive_symmetric_projector,
    naive_torus_column,
)

from stabgauge import smallscale, syzygy
from stabgauge.codebook import get_code
from stabgauge.gauging import (
    NotSymmetricError,
    SymmetryModel,
    conjugate_by_disentangler,
    gauge,
    pi_generators,
    symmetry_model_from_code,
)
from stabgauge.gf2 import Gf2Basis
from stabgauge.pauli import GeneratorMap, PauliColumn
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.smallscale import (
    CosetState,
    DenseLattice,
    QubitCapExceeded,
    _gauged_image,
    _max_deviation,
    apply_pauli,
    build_G,
    check_claim1,
    check_groundspace_span,
    check_lemma2,
    check_lemma3,
    check_matrix_elements,
)
from stabgauge.syzygy import KernelBasis, bounded_kernel, certify_on_torus
from stabgauge.torus import count_logical, instantiate, shape_of

SHAPE = shape_of((2, 2))


@pytest.fixture(scope="module")
def ising_model():
    return symmetry_model_from_code(get_code("ising2d"))


def identity_column(dim, q):
    return PauliColumn.from_entries(dim, (LaurentPoly.zero(dim),) * (2 * q))


def trivial_model(dim=1, q=1):
    return SymmetryModel(GeneratorMap.zero(dim, q, 0))


def single_constraint_model():
    # one matter qubit, one on-site Z constraint: no symmetry at all
    return SymmetryModel(GeneratorMap.identity(1, 1))


def fold_model():
    # the constraint 1 + x^2 folds to zero on a length-2 circle
    return SymmetryModel(GeneratorMap(1, [[parse_poly("1 + x^2", 1)]]))


def gauss_products(lat):
    """W(u) for every matter pattern u, the XOR of the Gauss-law X masks of
    the matter bits of u, enumerated here bit by bit."""
    masks = [xm for xm, _ in lat.constraint_masks]
    w = np.zeros(1 << lat.n_matter, dtype=np.int64)
    for u in range(len(w)):
        for i, xm in enumerate(masks):
            if (u >> i) & 1:
                w[u] ^= xm
    return w


def as_columns(lat, state):
    """An affine coset state column by column, in the oracle's form: column
    u has rep rep ^ A u, where A u = W(u) ^ u, and sign
    sign * (-1)^(u . sigma)."""
    u = np.arange(1 << lat.n_matter)
    reps = state.rep ^ gauss_products(lat) ^ u
    signs = state.sign * (1 - 2 * (np.bitwise_count(u & state.sigma).astype(np.int64) & 1))
    return CosetColumns(tuple(int(r) for r in reps), tuple(int(v) for v in signs))


def expand(lat, state):
    """A coset state, affine or column by column, as a (2^n_total, columns)
    array: column j holds signs[j] * 2^-((n_matter + dim K)/2) at basis
    state reps[j] ^ W(u) for every matter pattern u."""
    if isinstance(state, CosetState):
        state = as_columns(lat, state)
    w = gauss_products(lat)
    reps = np.array(state.reps, dtype=np.int64)
    vals = np.array(state.signs, dtype=float) * 2.0 ** (-(lat.n_matter + lat.symmetry_dim) / 2)
    out = np.zeros((1 << lat.n_total, len(reps)))
    out[reps[:, None] ^ w[None, :], np.arange(len(reps))[:, None]] = vals[:, None]
    return out


def dense(matrix: oracle.MatterMatrix):
    """An exact matter-space matrix as a float array."""
    out = np.zeros((len(matrix.rows), len(matrix.rows)))
    for r, row in enumerate(matrix.rows):
        for c, v in row.items():
            out[r, c] = v * 2.0 ** -matrix.den_exp
    return out


def full_pauli(vec, xmask, zmask):
    """X(xmask) Z(zmask) on full state vectors (axis 0 runs over all 2^n
    basis states), Z acting first: entry i is the input's entry i ^ xmask
    times the parity sign of (i ^ xmask) & zmask."""
    src = np.arange(len(vec)) ^ xmask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & zmask) & 1)
    return vec[src] * signs.reshape((-1,) + (1,) * (vec.ndim - 1))


def gauss_project(lat, vec, order=1):
    """The product of the Gauss-law projectors (1 + X(W_i))/2 on full state
    vectors, taken in the given order (1 or -1) of the generators."""
    for xm, zm in lat.constraint_masks[::order]:
        vec = 0.5 * (vec + full_pauli(vec, xm, zm))
    return vec


def flat_zmasks(lat):
    """Z masks of the flat fields, the torus kernel of the constraint map."""
    flat = instantiate(lat.model.constraint_map, lat.shape).nullspace()
    return [v << lat.n_matter for v in flat]


def random_states(lat, count, seed):
    """Affine coset states with a random gauge-only rep, a random character
    sigma and a random sign (+1 or -1)."""
    rng = np.random.default_rng(seed)
    return [CosetState(int(rng.integers(0, 1 << lat.n_gauge)) << lat.n_matter,
                       int(rng.integers(0, 1 << lat.n_matter)), int(rng.choice([-1, 1])))
            for _ in range(count)]


def ops(model):
    # single X and the bond of `smallscale --check all`
    single_x = PauliColumn.single_x(model.dim, model.matter_q, 0)
    bond = PauliColumn(model.dim, model.matter_q, single_x.z_block, model.constraint_map.column(0))
    return single_x, bond


def gauged_masks(lat):
    """(xmask, zmask) of the disentangled gauged images of single X and the bond."""
    return [lat.masks(conjugate_by_disentangler(lat.model, _gauged_image(lat, op)))
            for op in ops(lat.model)]


def test_lattice_has_twelve_qubits(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    assert lat.n_total == 12
    assert lat.n_matter == 4 and lat.n_gauge == 8


def test_lattice_takes_model_shape_and_cap(ising_model):
    # qubit bits are torus bits; `perm` is a read-only None kept for the
    # benchmark tracer's key
    lat = DenseLattice(ising_model, SHAPE)
    assert lat._fields == ("model", "shape", "cap") and lat.perm is None
    with pytest.raises(AttributeError):
        lat.perm = tuple(range(lat.n_total))
    with pytest.raises(TypeError):
        DenseLattice(ising_model, SHAPE, 20, None)


def test_cap_refuses_cubic_matter_model():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    with pytest.raises(QubitCapExceeded):
        DenseLattice(model, shape_of((2, 2, 2)))


def test_pauli_products_are_involutions(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    pairs = [*lat.constraint_masks, *((0, z) for z in flat_zmasks(lat)), *gauged_masks(lat)]
    for state in random_states(lat, 16, 0):
        for xm, zm in pairs:
            assert apply_pauli(lat, apply_pauli(lat, state, xm, zm), xm, zm) == state


def test_gauss_projector_keeps_or_zeroes_whole_columns(ising_model):
    # after a Pauli, the full-space Gauss-law projectors (idempotent, and
    # commuting) keep every column when the Z mask keeps the Gauss law, and
    # zero every column otherwise
    lat = DenseLattice(ising_model, SHAPE)
    state = random_states(lat, 1, 1)[0]
    full = expand(lat, state)
    assert np.array_equal(gauss_project(lat, full), full)
    matter_z = 0b1
    pairs = gauged_masks(lat) + [(0, matter_z), (lat.constraint_masks[0][0], matter_z)]
    kept = 0
    for xm, zm in pairs:
        projected = gauss_project(lat, full_pauli(full, xm, zm))
        assert np.max(np.abs(gauss_project(lat, projected) - projected)) <= 1e-12
        assert np.max(np.abs(gauss_project(lat, full_pauli(full, xm, zm), -1) - projected)) <= 1e-12
        if lat.keeps_gauss_law(zm):
            kept += 1
            assert np.array_equal(projected, expand(lat, apply_pauli(lat, state, xm, zm)))
        else:
            assert not projected.any()
    assert kept == 2


def test_raw_gauging_map_norm_pattern(ising_model):
    # each projected basis state has norm^2 = 2^-(number of constraints),
    # before the map is scaled by 2^(norm_exponent / 2)
    lat = DenseLattice(ising_model, SHAPE)
    full = expand(lat, build_G(lat))
    norms = np.sum(full * full, axis=0)
    scale = 2.0 ** (lat.norm_exponent / 2.0)
    assert np.allclose(norms, 2.0 ** (-len(lat.constraint_masks)) * scale**2)


def test_cached_gauging_map_is_read_only(ising_model):
    # G is the affine state (0, 0, 1): three ints, whatever the lattice size
    lat = DenseLattice(ising_model, SHAPE)
    g = lat.gauging_map
    assert lat.gauging_map is g
    with pytest.raises(AttributeError):
        g.sign = 0
    assert g == build_G(lat) == CosetState(0, 0, 1)


def test_normalization_exponent_is_integer(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    assert lat.norm_exponent == len(lat.constraint_masks) - lat.symmetry_dim
    assert lat.norm_exponent == 3


def test_no_constraint_model_gauges_to_symmetric_projector():
    # with no constraints every matter X pattern is a symmetry, so G is the
    # average over all of them
    lat = DenseLattice(trivial_model(q=1), shape_of((3,)))
    full = expand(lat, build_G(lat))
    assert np.array_equal(full, np.full((8, 8), 2.0**-3))
    assert np.array_equal(full, dense(oracle.symmetric_projector(lat)))
    assert (lat.norm_exponent, lat.symmetry_dim) == (0, 3)


def test_no_constraint_model_symmetric_projector_averages_every_x_pattern():
    lat = DenseLattice(trivial_model(q=1), shape_of((3,)))
    assert np.array_equal(dense(oracle.symmetric_projector(lat)), np.full((8, 8), 2.0**-3))
    assert check_lemma2(lat).max_deviation == 0.0


@pytest.mark.parametrize("q,lengths", [(1, (3,)), (2, (2,))])
def test_no_constraint_model_reports(q, lengths):
    # the seven reports of `smallscale --check all`, with the identity as the
    # only symmetric Z part; the Gauss-law generators touch no gauge qubit,
    # so the claim-1 twirl region of single X cannot be injective
    lat = DenseLattice(trivial_model(q=q), shape_of(lengths))
    single_x = PauliColumn.single_x(1, q, 0)
    ident = identity_column(1, q)
    lemma2 = check_lemma2(lat)
    assert lemma2.passed and lemma2.details["symmetry_dim"] == lat.n_matter
    assert check_lemma3(lat, single_x).passed and check_lemma3(lat, ident).passed
    claim1 = check_claim1(lat, single_x)
    assert not claim1.passed and claim1.details["region_injective"] is False
    assert check_claim1(lat, ident).passed
    assert check_matrix_elements(lat, single_x).passed
    assert check_groundspace_span(lat).passed


def test_lemma2_ising(ising_model):
    rep = check_lemma2(DenseLattice(ising_model, SHAPE))
    assert rep.passed
    assert rep.max_deviation == 0
    assert rep.details["symmetry_dim"] == 1


def test_lemma2_no_symmetry_model_gram_is_identity():
    lat = DenseLattice(single_constraint_model(), shape_of((2,)))
    rep = check_lemma2(lat)
    assert rep.passed
    full = expand(lat, build_G(lat))
    assert np.max(np.abs(full.T @ full - np.eye(4))) <= 1e-10


def repeated_bonds_model(count):
    # `count` Z constraints 1 + x on one matter type
    return SymmetryModel(GeneratorMap(1, [[parse_poly("1 + x", 1)] * count]))


def test_lattice_over_63_qubits_runs_within_the_cap():
    # masks are Python ints, so 4 matter and 60 gauge qubits run once the
    # cap allows them; the cap is the one size bound
    with pytest.raises(QubitCapExceeded, match="64 qubits exceeds the cap of 63"):
        DenseLattice(repeated_bonds_model(15), shape_of((4,)), cap=63)
    lat = DenseLattice(repeated_bonds_model(15), shape_of((4,)), cap=80)
    assert lat.n_total == 64
    assert check_lemma2(lat).passed


def test_lemma2_cap_guard():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    with pytest.raises(QubitCapExceeded):
        check_lemma2(DenseLattice(model, shape_of((2, 2, 2))))


def test_lemma3_single_x_bond_and_identity(ising_model):
    single_x, bond = ops(ising_model)
    ident = identity_column(2, 1)
    lat = DenseLattice(ising_model, SHAPE)
    for op in (single_x, bond, ident):
        rep = check_lemma3(lat, op)
        assert rep.passed and rep.max_deviation == 0


def test_lemma3_rejects_nonsymmetric(ising_model):
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    with pytest.raises(NotSymmetricError):
        check_lemma3(DenseLattice(ising_model, SHAPE), PauliColumn(2, 1, (zero,), (one,)))


def test_lemma3_fails_for_a_wrong_gauged_operator(ising_model, monkeypatch):
    # the gauged bond moves no coset where gauged single X does, so every
    # column pair lies in different cosets and deviates by its larger magnitude
    lat = DenseLattice(ising_model, SHAPE)
    single_x, bond = ops(ising_model)
    image = smallscale.gauged_state
    monkeypatch.setattr(smallscale, "gauged_state", lambda lat, op: image(lat, bond))
    rep = check_lemma3(lat, single_x)
    assert not rep.passed
    assert rep.max_deviation == np.max(np.abs(expand(lat, lat.gauging_map))) > 0


def test_claim1_recovers_operators(ising_model):
    single_x, bond = ops(ising_model)
    ident = identity_column(2, 1)
    lat = DenseLattice(ising_model, SHAPE)
    for op in (single_x, bond, ident):
        rep = check_claim1(lat, op)
        assert rep.passed and rep.max_deviation == 0
        assert rep.details["region_injective"]


def test_matrix_elements_exhaustive(ising_model):
    lat = DenseLattice(ising_model, SHAPE)
    for op in ops(ising_model):
        rep = check_matrix_elements(lat, op)
        assert rep.passed and rep.max_deviation == 0
        assert rep.details == {"states": 16}


def test_matrix_elements_fail_for_a_wrong_gauged_operator(ising_model, monkeypatch):
    # single X sandwiched with the gauged bond in its place must not pass
    lat = DenseLattice(ising_model, SHAPE)
    single_x, bond = ops(ising_model)
    image = smallscale.gauged_state
    monkeypatch.setattr(smallscale, "gauged_state", lambda lat, op: image(lat, bond))
    rep = check_matrix_elements(lat, single_x)
    assert not rep.passed
    assert rep.max_deviation == 0.5


def test_groundspace_span_ising(ising_model):
    rep = check_groundspace_span(DenseLattice(ising_model, SHAPE))
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


def test_groundspace_counts_kernel_of_mu_dagger_without_local_kernel():
    # the 1D Ising bond 1 + x has no local kernel, so mu has no columns and
    # mu-dagger no rows; the kernel of mu-dagger is then all 4 gauge qubits
    eta = GeneratorMap(1, [[parse_poly("1 + x", 1)]])
    model = SymmetryModel(eta)
    rep = check_groundspace_span(DenseLattice(model, shape_of((4,))))
    assert rep.kernel_mu_dagger_dim == 4
    assert rep.image_eta_dagger_dim == 3


def test_groundspace_no_constraints_trivially_spanned():
    rep = check_groundspace_span(DenseLattice(trivial_model(q=1), shape_of((3,))))
    assert rep.passed
    assert rep.holonomy_sectors == 1


def test_groundspace_certifies_each_model_once(ising_model):
    # the windowed exactness depends on the model alone, so lattices of one
    # model share one kernel search and one certificate
    for lengths in ((2, 2), (3, 2)):
        assert check_groundspace_span(DenseLattice(ising_model, shape_of(lengths))).passed
    assert syzygy._bounded_kernel.cache_info().misses == syzygy._certify.cache_info().misses == 1


def test_groundspace_failed_certificate_is_computed_once():
    # 1 + x^2 is not exact in windowed form: the failed certificate is
    # memoized like a passed one and read as a failure on every call
    lat = DenseLattice(fold_model(), shape_of((3,)))
    for _ in range(3):
        assert not check_groundspace_span(lat).local_exactness
    assert syzygy._certify.cache_info().misses == 1


def test_groundspace_line_names_its_flags_only_on_failure():
    # a pass line is the one the golden cases record; a failure may agree on
    # every dimension, as 1 + x^2 does on a length-3 circle
    rep = check_groundspace_span(DenseLattice(fold_model(), shape_of((3,))))
    dims = ("(flat-sector dim 4, gauged-basis rank 4, holonomy sectors 2, "
            "local-field ground dim 8")
    assert (rep.contained, rep.local_exactness) == (True, False)
    assert str(rep) == f"groundspace-span: FAIL {dims}; contained=True, local_exactness=False)"
    assert str(rep._replace(passed=True)) == f"groundspace-span: pass {dims})"


def _all_reports(lat):
    # the seven reports of `smallscale --check all`
    single_x, bond = ops(lat.model)
    return [check_lemma2(lat), check_lemma3(lat, single_x), check_lemma3(lat, bond),
            check_claim1(lat, single_x), check_claim1(lat, bond),
            check_matrix_elements(lat, single_x), check_groundspace_span(lat)]


def relabeled(lat, axes, shift):
    """The lattice of eta with new axis i the old axis axes[i], every entry
    translated by shift, on the torus with its lengths permuted alike: the
    relabeling the benchmark's seeds make."""
    def move(p):
        return LaurentPoly(p.dim, {tuple(e[a] + s for a, s in zip(axes, shift)) for e in p.terms})

    eta = lat.model.constraint_map
    moved = GeneratorMap(eta.dim, [[move(p) for p in row] for row in eta.entries], eta.cols)
    lengths = [lat.shape.lengths[a] for a in axes]
    return DenseLattice(SymmetryModel(moved), shape_of(lengths), lat.cap)


@pytest.mark.parametrize("name,lengths", [("ising2d", (2, 2)), ("toric2d", (2, 2)),
                                          ("ising2d", (3, 2))])
def test_reports_invariant_under_axis_permutation_and_translation(name, lengths):
    lat = DenseLattice(symmetry_model_from_code(get_code(name)), shape_of(lengths))
    reports = _all_reports(lat)
    assert all(r.passed for r in reports)
    assert _all_reports(relabeled(lat, (1, 0), (1, -2))) == reports


def test_fractal_ising_pair_at_24_qubits():
    # the paper's fractal pair on (2,2,2): 8 matter and 16 gauge qubits
    lat = DenseLattice(symmetry_model_from_code(get_code("fractal_ising")), shape_of((2, 2, 2)), cap=24)
    reports = _all_reports(lat)
    assert all(r.passed for r in reports)
    lemma2, _, _, claim_x, claim_bond, elements, ground = reports
    assert lemma2.details == {"norm_exponent": 5, "symmetry_dim": 3}
    assert claim_x.details == {"region_matter": 1, "region_gauge": 8, "region_injective": True}
    assert claim_bond.details == {"region_matter": 4, "region_gauge": 12, "region_injective": True}
    assert elements.details == {"states": 256}
    assert (ground.ground_dim_flat, ground.g_rank, ground.holonomy_sectors,
            ground.ground_dim_local_fields) == (32, 32, 64, 2048)


@pytest.mark.parametrize("name,lengths,cap,sectors,k", [
    ("ising2d", (2, 2), 20, 4, 2),
    ("ising2d", (3, 2), 20, 4, 2),
    ("ising2d", (3, 3), 27, 4, 2),
    ("ising2d", (4, 3), 36, 4, 2),
    ("toric2d", (2, 2), 20, 4, 2),
    ("toric2d", (3, 3), 27, 4, 2),
    ("toric2d", (4, 3), 36, 4, 2),
    ("fractal_ising", (2, 2, 2), 24, 64, 6),
])
def test_holonomy_sectors_count_logical_qubits_of_the_gauged_code(name, lengths, cap, sectors, k):
    # three layers of the paper's relation give one number: the wrapping
    # sectors the local fields leave degenerate, 2^k of the gauged code, and,
    # where the torus opens a window, 2 to the wrapping classes of the
    # certificate that the columns of eta-dagger span the kernel of mu-dagger
    model = symmetry_model_from_code(get_code(name))
    shape = shape_of(lengths)
    rep = check_groundspace_span(DenseLattice(model, shape, cap=cap))
    k_encoded = count_logical(gauge(model)[0], shape).k_encoded
    assert (rep.holonomy_sectors, k_encoded) == (sectors, k)
    assert rep.holonomy_sectors == 2 ** k_encoded
    eta_dag = model.constraint_map.dagger()
    box = eta_dag.support_extent()
    if all(length > 2 * b for length, b in zip(lengths, box)):
        fields = KernelBasis(bounded_kernel(model.constraint_map).matrix().dagger(), box,
                             [eta_dag.column(j) for j in range(eta_dag.cols)])
        assert rep.holonomy_sectors == 2 ** certify_on_torus(fields, lengths).wrapping_deficit


def test_claim1_adjacency_follows_gauss_law_masks():
    # on a length-2 circle the Gauss-law generator of a matter qubit flips no
    # gauge qubit, so the twirl region cannot be injective
    model = fold_model()
    single_x, _ = ops(model)
    rep = check_claim1(DenseLattice(model, shape_of((2,))), single_x)
    assert rep.details["region_injective"] is False
    assert not rep.passed and rep.max_deviation == 1.0


def test_claim1_region_holds_no_untouched_gauge_qubit():
    # on a length-2 circle the two terms of 1 + x^2 cancel, so the Gauss-law
    # generator flips no gauge qubit and single X gauges to no Z part
    model = fold_model()
    single_x, _ = ops(model)
    rep = check_claim1(DenseLattice(model, shape_of((2,))), single_x)
    assert rep.details["region_matter"] == 1
    assert rep.details["region_gauge"] == 0


def test_apply_pauli_acts_column_by_column(ising_model):
    # the affine update of rep, sigma and sign is the oracle's column-by-column action
    lat = DenseLattice(ising_model, SHAPE)
    x_only, _ = lat.constraint_masks[0]
    z_only = flat_zmasks(lat)[0]
    gauge_x, gauge_z = gauged_masks(lat)[1]
    for state in random_states(lat, 5, 3):
        for xm, zm in ((0, 0), (x_only, 0), (0, z_only), (gauge_x, gauge_z ^ z_only)):
            moved = oracle.apply_pauli(lat, as_columns(lat, state), xm, zm)
            assert as_columns(lat, apply_pauli(lat, state, xm, zm)) == moved


def test_eighteen_qubit_ising_holds_three_ints():
    # 6 matter bits and a rank-5 space of Gauss-law gauge patterns: G's 64
    # columns lie in 32 cosets that cover 2^11 of the 2^18 basis states, and
    # the affine form holds them as three ints
    lat = DenseLattice(symmetry_model_from_code(get_code("ising2d")), shape_of((3, 2)))
    assert lat.n_total == 18
    assert lat.gauging_map == CosetState(0, 0, 1)
    columns = oracle.build_G(lat)
    assert len(columns.reps) == 64 and len(set(columns.reps)) == 32
    assert len({r ^ w for r in columns.reps for w in oracle.coset_rows(lat)}) == 2048
    assert check_groundspace_span(lat).g_rank == 32


def test_apply_pauli_rejects_z_mask_that_breaks_the_gauss_law(ising_model):
    # a matter Z anticommutes with its own Gauss-law generator: the image of
    # a coset state would not be uniform on its coset
    lat = DenseLattice(ising_model, SHAPE)
    g = lat.gauging_map
    with pytest.raises(ValueError, match="anticommutes"):
        apply_pauli(lat, g, 0, 1)
    with pytest.raises(ValueError):
        apply_pauli(lat, g, lat.constraint_masks[0][0], 1)


def test_coset_pauli_action_matches_full_space_action(ising_model):
    # Gauss-law masks, the gauged operators' masks with their gauge X
    # remainders, flat-field Z masks and mixed masks with matter bits, on
    # random columns over several cosets, against the action on all 2^12
    # basis states; Z masks that break the Gauss law are refused
    lat = DenseLattice(ising_model, SHAPE)
    gauge_x = gauged_masks(lat)[0][0]
    z_flat = flat_zmasks(lat)[0]
    z_mixed = 0b101 << lat.n_matter | 0b11
    pairs = [*lat.constraint_masks, *gauged_masks(lat),
             (gauge_x, 0), (0, z_flat), (gauge_x ^ 1, z_flat), (0, z_mixed), (gauge_x ^ 1, z_mixed)]
    refused = 0
    for state in random_states(lat, 4, 5):
        for xm, zm in pairs:
            if lat.keeps_gauss_law(zm):
                moved = apply_pauli(lat, state, xm, zm)
                assert np.array_equal(expand(lat, moved), full_pauli(expand(lat, state), xm, zm))
            else:
                refused += 1
                with pytest.raises(ValueError):
                    apply_pauli(lat, state, xm, zm)
    assert refused == 8


def _oracle_lattices():
    return [
        DenseLattice(symmetry_model_from_code(get_code("ising2d")), SHAPE),
        DenseLattice(symmetry_model_from_code(get_code("toric2d")), SHAPE),
        DenseLattice(fold_model(), shape_of((2,))),
    ]


ORACLE_LATTICES = _oracle_lattices()
ORACLE_IDS = ["ising2d", "toric2d", "fold"]


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_matter_operators_match_kronecker_products(lat):
    single_x, bond = ops(lat.model)
    dim = lat.model.dim
    mixed = PauliColumn(dim, 1, (LaurentPoly.one(dim),), (LaurentPoly.one(dim),))
    for op in (single_x, bond, mixed, identity_column(dim, 1)):
        expected = naive_pauli_matrix(lat.n_matter, *lat.masks(op))
        assert np.array_equal(dense(oracle.matter_operator(lat, op)), expected)


def assert_matches_oracle(lat):
    masks = lat.constraint_masks
    assert all(zm == 0 for _, zm in masks)
    # the oracle is unnormalized; scaling both by the same float keeps equality exact
    expected = naive_gauging_map(lat.n_matter, lat.n_total, [xm for xm, _ in masks])
    expected *= 2.0 ** (lat.norm_exponent / 2.0)
    assert np.array_equal(expand(lat, lat.gauging_map), expected)


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_gauging_map_matches_coset_form(lat):
    assert_matches_oracle(lat)


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_exact_matrices_match_dense_products(lat):
    # the oracle's Gram matrix of two coset states and its symmetrized form,
    # against float products of their expansions
    g = oracle.build_G(lat)
    for other in (g, as_columns(lat, random_states(lat, 1, 7)[0])):
        product = expand(lat, g).T @ expand(lat, other)
        assert np.max(np.abs(dense(oracle.gram(lat, g, other)) - product)) <= 1e-12
        proj = dense(oracle.symmetric_projector(lat))
        symmetrized = dense(oracle.symmetrize(lat, oracle.gram(lat, g, other)))
        assert np.max(np.abs(symmetrized - proj @ product)) <= 1e-12


@st.composite
def small_lattices(draw):
    """Random eta (dim 1-2, 1-2 matter types, 1-2 constraints, up to 3 terms
    per entry with exponents in [-2, 2]) on a torus of at most 14 matter and
    gauge qubits."""
    dim = draw(st.integers(1, 2))
    rows = draw(st.integers(1, 2))
    # lengths are at least 2, so a 2D torus of 4 sites leaves room for 3 types
    cols = draw(st.integers(1, 2 if dim == 1 else 3 - rows))
    exps = st.tuples(*[st.integers(-2, 2)] * dim)
    entries = [[LaurentPoly.from_terms(dim, draw(st.lists(exps, max_size=3))) for _ in range(cols)]
               for _ in range(rows)]
    sites = 14 // (rows + cols)
    lengths = [draw(st.integers(2, min(4, sites // (2 if dim == 2 else 1))))]
    if dim == 2:
        lengths.append(draw(st.integers(2, min(4, sites // lengths[0]))))
    return DenseLattice(SymmetryModel(GeneratorMap(dim, entries)), shape_of(lengths))


@given(small_lattices())
@settings(max_examples=40, deadline=None)
def test_coset_form_matches_oracle_and_full_rank_on_random_models(lat):
    assert_matches_oracle(lat)
    svals = np.linalg.svd(expand(lat, lat.gauging_map), compute_uv=False)
    assert check_groundspace_span(lat).g_rank == int(np.sum(svals > 1e-9 * max(1.0, svals[0])))
    assert check_lemma2(lat).passed


@given(small_lattices())
@settings(max_examples=40, deadline=None)
def test_holonomy_sectors_count_logical_qubits_on_random_models(lat):
    # the wrapping sectors of the local-field ground space are the logical
    # qubits of the gauged code on the same torus
    k = count_logical(gauge(lat.model)[0], lat.shape).k_encoded
    rep = check_groundspace_span(lat)
    assert rep.holonomy_sectors == 2 ** k
    assert (rep.ground_dim_flat, rep.ground_dim_local_fields) == packed_ground_dims(lat)


@given(small_lattices(), st.data())
@settings(max_examples=40, deadline=None)
def test_reports_invariant_under_axis_permutation_and_translation_on_random_models(lat, data):
    # failing reports included, deviations and all
    dim = lat.model.dim
    axes = data.draw(st.permutations(range(dim)))
    shift = data.draw(st.tuples(*[st.integers(-3, 3)] * dim))
    assert _all_reports(relabeled(lat, axes, shift)) == _all_reports(lat)


def _oracle_reports(lat):
    # the enumerated reports, in the order of `_all_reports`
    single_x, bond = ops(lat.model)
    return [oracle.check_lemma2(lat), oracle.check_lemma3(lat, single_x),
            oracle.check_lemma3(lat, bond), oracle.check_claim1(lat, single_x),
            oracle.check_claim1(lat, bond), oracle.check_matrix_elements(lat, single_x),
            oracle.check_groundspace_span(lat)]


def assert_reports_match_oracle(lat):
    """Every report equals the enumerated one repr for repr, deviations
    included: the seven of `--check all`, matrix elements of the bond, and
    lemma3 and matrix elements of each operator with the other operator's
    gauged image swapped in."""
    single_x, bond = ops(lat.model)
    assert repr(_all_reports(lat)) == repr(_oracle_reports(lat))
    assert repr(check_matrix_elements(lat, bond)) == repr(oracle.check_matrix_elements(lat, bond))
    image, action = smallscale.gauged_state, oracle.gauged_operator_action
    for op, other in ((single_x, bond), (bond, single_x)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smallscale, "gauged_state", lambda lat, _: image(lat, other))
            mp.setattr(oracle, "gauged_operator_action", lambda lat, _: action(lat, other))
            for check, enumerated in ((check_lemma3, oracle.check_lemma3),
                                      (check_matrix_elements, oracle.check_matrix_elements)):
                assert repr(check(lat, op)) == repr(enumerated(lat, op))


@given(small_lattices())
@settings(max_examples=40, deadline=None)
def test_reports_match_enumerated_oracle_on_random_models(lat):
    assert_reports_match_oracle(lat)


@given(small_lattices(), st.data())
@settings(max_examples=40, deadline=None)
def test_reports_match_enumerated_oracle_with_another_symmetry_group(lat, data):
    # ker A equals K on every lattice, so lemma2 cannot fail; the forms for
    # ker A != K are reached with another group put in K's place on both sides
    vectors = data.draw(st.lists(st.integers(0, lat.matter_mask), max_size=3))
    basis = [r for r in Gf2Basis(vectors).rows if r]
    group = [0]
    for v in basis:
        group += [g ^ v for g in group]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DenseLattice, "symmetry_basis", property(lambda _: basis))
        mp.setattr(oracle, "symmetry_group", lambda _: tuple(group))
        assert_reports_match_oracle(lat)


def pauli_column(lat, q, xmask, zmask):
    """The Pauli column over q qubit types of the lattice with the given masks."""
    def block(mask):
        return tuple(LaurentPoly.from_terms(lat.model.dim, [
            lat.shape.site(s) for s in range(lat.n_sites) if (mask >> (ty * lat.n_sites + s)) & 1])
            for ty in range(q))
    return PauliColumn(lat.model.dim, q, block(xmask), block(zmask))


@given(small_lattices(), st.data())
@settings(max_examples=40, deadline=None)
def test_operator_reports_match_enumerated_oracle_on_any_operator_and_image(lat, data):
    # a symmetric operator's Z part is orthogonal to K, so the claim-1 twirl
    # sum cannot vanish, and its gauged image keeps the Gauss law; any masks,
    # with any column of the enlarged lattice as the image on both sides,
    # reach the other forms
    q = lat.model.matter_q + lat.model.n_constraints
    masks = [data.draw(st.integers(0, (1 << n) - 1))
             for n in (lat.n_matter, lat.n_matter, lat.n_total, lat.n_total)]
    op, image = pauli_column(lat, lat.model.matter_q, *masks[:2]), pauli_column(lat, q, *masks[2:])
    assert (*lat.masks(op), *lat.masks(image)) == tuple(masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smallscale, "_gauged_image", lambda lat, op: image)
        mp.setattr(oracle, "_gauged_image", lambda lat, op: image)
        for check in ("check_lemma3", "check_claim1", "check_matrix_elements"):
            assert repr(getattr(smallscale, check)(lat, op)) == repr(getattr(oracle, check)(lat, op))


TIER1_LATTICES = [("ising2d", (2, 2), 20), ("toric2d", (2, 2), 20), ("ising2d", (3, 2), 20),
                  ("ising2d", (3, 3), 27), ("toric2d", (3, 3), 27), ("ising2d", (4, 3), 36),
                  ("toric2d", (4, 3), 36), ("fractal_ising", (2, 2, 2), 24)]


@pytest.mark.parametrize("name,lengths,cap", TIER1_LATTICES)
def test_reports_match_enumerated_oracle_on_tier1_lattices(name, lengths, cap):
    lat = DenseLattice(symmetry_model_from_code(get_code(name)), shape_of(lengths), cap)
    assert_reports_match_oracle(lat)
    axes = tuple(reversed(range(len(lengths))))
    assert_reports_match_oracle(relabeled(lat, axes, (1, -2, 3)[:len(lengths)]))


@pytest.mark.parametrize("length", [2, 3, 4, 5])
def test_reports_match_enumerated_oracle_on_fold_model(length):
    # 1 + x^2 folds to zero at L = 2 and is not exact in windowed form
    assert_reports_match_oracle(DenseLattice(fold_model(), shape_of((length,))))


@pytest.mark.parametrize("name,lengths,cap", [("fractal_ising", (4, 4, 4), 192),
                                              ("generalized_toric(3,2)", (2, 2, 2), 60)])
def test_reports_pass_on_lattices_beyond_enumeration(name, lengths, cap):
    # 2^64 and 2^24 matter patterns: no report enumerates them
    model = symmetry_model_from_code(get_code(name))
    shape = shape_of(lengths)
    reports = _all_reports(DenseLattice(model, shape, cap))
    assert all(r.passed for r in reports)
    if name == "fractal_ising":
        k = count_logical(gauge(model)[0], shape).k_encoded
        assert reports[-1].holonomy_sectors == 2 ** k == 2 ** 14


def packed_ground_dims(lat):
    """(flat, local-field) ground-space dimensions as 2^(n_total - rank) of
    the Gauss-law masks with Z fields, each mask packed as xm | zm << n_total:
    the flat fields, or the translates of the box-local kernel mu of eta."""
    n = lat.n_total
    mu = bounded_kernel(lat.model.constraint_map).matrix()
    local = [v << lat.n_matter for v in instantiate(mu.dagger(), lat.shape).data]
    gauss = [xm | zm << n for xm, zm in lat.constraint_masks]
    return tuple(2 ** (n - len(Gf2Basis(gauss + [zm << n for zm in fields])))
                 for fields in (flat_zmasks(lat), local))


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_ground_dims_match_packed_mask_ranks(lat):
    rep = check_groundspace_span(lat)
    assert (rep.ground_dim_flat, rep.ground_dim_local_fields) == packed_ground_dims(lat)


def test_coset_rank_counts_cosets_of_nonzero_columns(ising_model):
    # the oracle's rank: columns on one coset are parallel whatever their
    # signs, a zero column adds nothing, and columns on different cosets are
    # orthogonal
    lat = DenseLattice(ising_model, SHAPE)
    a, b, c = sorted(set(oracle.build_G(lat).reps))[:3]
    state = CosetColumns((a, b, a, b, c), (1, -1, -1, 1, 0))
    assert oracle.coset_rank(state) == 2 == np.linalg.matrix_rank(expand(lat, state))


def test_max_deviation_matches_full_space_difference(ising_model):
    # states on one coset differ by their signs and characters; states on
    # different cosets, or with a zero side, deviate by the larger magnitude
    lat = DenseLattice(ising_model, SHAPE)
    for seed in range(4):
        a, b = random_states(lat, 2, seed)
        pairs = [(a, b), (a, b._replace(rep=a.rep)), (a, a._replace(sign=-a.sign)),
                 (a, b._replace(rep=a.rep, sigma=a.sigma)), (a, a._replace(sign=0)),
                 (a._replace(sign=0), b._replace(sign=0))]
        for x, y in pairs:
            want = np.max(np.abs(expand(lat, x) - expand(lat, y)))
            assert _max_deviation(lat, x, y) == want
            assert oracle.max_deviation(lat, as_columns(lat, x), as_columns(lat, y)) == want


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_cosets_closed_under_gauss_law_and_gauged_operator_masks(lat):
    # each Gauss-law mask moves only the matter pattern u, and each gauged
    # operator's X mask moves a coset of G onto another coset of G: its
    # remainder is gauge-only and one of the Gauss-law gauge patterns
    matter = lat.matter_mask
    rows = oracle.coset_rows(lat)
    assert len(set(rows)) == len(rows)
    assert [r & matter for r in rows] == list(range(len(rows)))
    for i, (xm, _) in enumerate(lat.constraint_masks):
        assert oracle.split_mask(lat, xm) == (0, 1 << i)
        assert lat.coset_rep(xm) == 0
    for xm, _ in gauged_masks(lat):
        rep, u = oracle.split_mask(lat, xm)
        assert rep & matter == 0 and rep ^ rows[u] == xm
        assert rep in {r & ~matter for r in rows}
        assert lat.coset_rep(xm) == rep


@pytest.mark.parametrize("lat", ORACLE_LATTICES, ids=ORACLE_IDS)
def test_symmetric_projector_matches_group_average(lat):
    masks = [xm for xm, _ in lat.constraint_masks]
    expected = naive_symmetric_projector(lat.n_matter, masks)
    assert np.array_equal(dense(oracle.symmetric_projector(lat)), expected)


def test_masks_match_term_placement_on_fold_model():
    # 1 + x^2 folds to zero on a length-2 circle; x^-1, x^3 and x wrap from
    # both sides onto one site and leave a single bit
    model = fold_model()
    shape = shape_of((2,))
    lat = DenseLattice(model, shape)
    wrapped = parse_poly("x^-1 + x^3 + x", 1)
    zero = LaurentPoly.zero(1)
    single_x, bond = ops(model)
    matter_ops = [single_x, bond, PauliColumn(1, 1, (wrapped,), (wrapped,))]
    enlarged = [PauliColumn(1, 2, (zero, wrapped), (wrapped, model.constraint_map.entries[0][0]))]
    for op in matter_ops + enlarged:
        split = op.q * lat.n_sites
        bits = naive_torus_column(op.entries(), shape)
        assert lat.masks(op) == (bits & ((1 << split) - 1), bits >> split)
    pis = pi_generators(model)
    split = pis[0].q * lat.n_sites
    masks = lat.constraint_masks
    for q, pi in enumerate(pis):
        for s, site in enumerate(shape.sites()):
            bits = naive_torus_column(tuple(e.shift(site) for e in pi.entries()), shape)
            expected = (bits & ((1 << split) - 1), bits >> split)
            assert masks[q * lat.n_sites + s] == expected
