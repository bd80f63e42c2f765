import itertools
import random
import sys

import pytest

from stabgauge import gauging as gauging_mod
from stabgauge.codebook import get_code
from stabgauge.gauging import (
    NotSymmetricError,
    SymmetryModel,
    conjugate_by_disentangler,
    double_gauge_check,
    gauge,
    gauge_operator,
    pi_generators,
    symmetry_model_from_code,
    ungauge_css,
)
from stabgauge.pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    columns_equal_up_to_translation,
    maps_equal_up_to_translation,
    symplectic_pair,
    verify_stabilizer,
)
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.syzygy import bounded_kernel, certification_lengths, certify_on_torus


def p(text, dim=2):
    return parse_poly(text, dim)


def local_x_map(model):
    """Box-local X fields, one per column: the kernel generators of the
    dagger of eta, which commute with every constraint field."""
    return bounded_kernel(model.constraint_map.dagger()).matrix()


def test_ungauge_toric_gives_bond_constraints():
    model = ungauge_css(get_code("toric2d"))
    assert model.matter_q == 1
    cols = [model.constraint_map.column(j) for j in range(2)]
    assert columns_equal_up_to_translation(cols[0], (p("1 + y"),))
    assert columns_equal_up_to_translation(cols[1], (p("1 + x"),))
    assert local_x_map(model).cols == 0


def test_ungauge_cubic_gives_fractal_constraints():
    model = ungauge_css(get_code("cubic"))
    assert model.matter_q == 1
    cols = [model.constraint_map.column(j) for j in range(2)]
    assert columns_equal_up_to_translation(cols[0], (p("1 + x*y + x*z + y*z", 3),))
    assert columns_equal_up_to_translation(cols[1], (p("x + z + x*z + x*y*z", 3),))
    assert local_x_map(model).cols == 0


def test_ungauge_trivial_single_site_x():
    one = LaurentPoly.one(2)
    code = CodeSpec(
        name="trivial", css=True,
        sigma_x=GeneratorMap(2, ((one,),)), sigma_z=GeneratorMap.zero(2, 1, 0),
    )
    model = ungauge_css(code)
    assert model.constraint_map == GeneratorMap.identity(2, 1).dagger()
    assert local_x_map(model).cols == 0


def test_ungauge_rejects_non_css():
    with pytest.raises(ValueError):
        ungauge_css(get_code("cluster_toric"))


def test_gauge_ising_is_toric():
    model = symmetry_model_from_code(get_code("ising2d"))
    code, mu = gauge(model)
    cert = certify_on_torus(mu, certification_lengths(mu))
    toric = get_code("toric2d")
    assert maps_equal_up_to_translation(code.sigma_x, toric.sigma_x)
    assert maps_equal_up_to_translation(code.sigma_z, toric.sigma_z)
    assert cert.passed
    assert verify_stabilizer(code).passed


def test_gauge_fractal_ising_is_cubic():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    code, mu = gauge(model)
    cert = certify_on_torus(mu, certification_lengths(mu))
    cubic = get_code("cubic")
    assert maps_equal_up_to_translation(code.sigma_x, cubic.sigma_x)
    assert maps_equal_up_to_translation(code.sigma_z, cubic.sigma_z)
    assert cert.passed


def test_gauge_identity_constraints():
    model = SymmetryModel(GeneratorMap.identity(1, 1))
    code, _ = gauge(model)
    assert code.n_x_types == 1
    assert code.n_z_types == 0
    assert code.sigma_x.entries[0][0] == LaurentPoly.one(1)


@pytest.mark.parametrize("name", ["toric2d", "cubic"])
def test_double_gauge_round_trip(name):
    assert double_gauge_check(get_code(name)).passed


def free_matter_model():
    # ising2d bonds on matter type 0; matter type 1 is under no constraint
    zero = LaurentPoly.zero(2)
    return SymmetryModel(GeneratorMap(2, [[p("1 + x"), p("1 + y")], [zero, zero]]))


def test_double_gauge_round_trip_with_an_all_zero_generator():
    # the free matter type gauges to an all-zero X generator, which the sector-
    # swapped round trip expects as an all-zero Z generator; regauging never
    # yields one, and a generator with no support stabilizes nothing
    code, _ = gauge(free_matter_model())
    assert not any(code.sigma_x.column(1))
    report = double_gauge_check(code)
    assert report.forward_match and report.dual_match and report.passed


def test_double_gauge_catches_corruption():
    # thicken the Z generator by a non-monomial factor: the code still
    # commutes but the regauged kernel generator no longer matches it
    cubic = get_code("cubic")
    fat = p("1 + x", 3)
    bad_z = GeneratorMap(
        3,
        [
            [cubic.sigma_z.entries[0][0] * fat],
            [cubic.sigma_z.entries[1][0] * fat],
        ],
    )
    bad = CodeSpec(
        name="bad-cubic", css=True,
        sigma_x=cubic.sigma_x, sigma_z=bad_z,
    )
    from stabgauge.pauli import verify_stabilizer

    assert verify_stabilizer(bad).passed
    report = double_gauge_check(bad)
    assert not report.passed
    assert report.diff


def test_duality_diff_lists_columns_in_box_form():
    # (x + y) times the toric Z generator still commutes; its least monomial
    # y is not its min corner, so the box form keeps it where it is
    toric = get_code("toric2d")
    fat = p("x + y")
    bad = CodeSpec(
        name="bad-toric", css=True,
        sigma_x=toric.sigma_x,
        sigma_z=GeneratorMap(2, [[q * fat for q in row] for row in toric.sigma_z.entries]),
    )
    report = double_gauge_check(bad)
    assert (report.forward_match, report.dual_match) == (False, True)
    assert report.diff == (
        "expected Z:\n"
        "  (x2 + x1 + x1*x2 + x1^2, x2 + x2^2 + x1 + x1*x2)\n"
        "regauged Z:\n"
        "  (1 + x1, 1 + x2)"
    )


def anticommuting_css():
    # X and Z on the same single site: the sectors anticommute
    one = LaurentPoly.one(1)
    return CodeSpec(
        name="xz-css", css=True,
        sigma_x=GeneratorMap(1, ((one,),)), sigma_z=GeneratorMap(1, ((one,),)),
    )


def test_double_gauge_rejects_noncommuting_code():
    with pytest.raises(ValueError, match="code is not commuting"):
        double_gauge_check(anticommuting_css())


def test_double_gauge_verifies_each_sector_order_once(monkeypatch):
    # the round trips' ungauge_css check the code and its sector swap; the
    # regauged codes commute by bounded_kernel's exact identity
    verified = []

    def counting_verify(code):
        verified.append(code)
        return verify_stabilizer(code)

    monkeypatch.setattr(gauging_mod, "verify_stabilizer", counting_verify)
    assert double_gauge_check(get_code("cubic")).passed
    assert [c.name for c in verified] == ["cubic", "cubic-swapped"]


def test_double_gauge_certifies_nothing(monkeypatch):
    # the comparison with the input is the check, so no kernel is certified
    certified = []

    def counting_certify(kb, lengths):
        certified.append(kb)
        return certify_on_torus(kb, lengths)

    for name, module in list(sys.modules.items()):
        if name.startswith("stabgauge") and hasattr(module, "certify_on_torus"):
            monkeypatch.setattr(module, "certify_on_torus", counting_certify)
    assert double_gauge_check(get_code("cubic")).passed
    assert certified == []


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_round_trip_generalized_toric(d, k):
    from stabgauge.codebook import generalized_toric

    assert double_gauge_check(generalized_toric(d, k)).passed


def test_ungauged_hypercubic_has_local_x_symmetry():
    # qubits on 2-cells in 3D: the six stabilizers around a vertex multiply
    # to the identity, so the matter model keeps one box-local X symmetry
    from stabgauge.codebook import generalized_toric

    model = ungauge_css(generalized_toric(3, 2))
    phi = local_x_map(model)
    assert phi.cols == 1
    assert all(e.is_zero() for row in phi.dagger().compose(model.constraint_map).entries for e in row)


@pytest.mark.parametrize("name,n_fields", [
    ("cubic", 0), ("fractal_ising", 0), ("ising2d", 0), ("toric2d", 0),
    ("generalized_toric(2,1)", 0), ("generalized_toric(3,1)", 0), ("generalized_toric(3,2)", 1),
])
def test_local_x_fields_commute_with_every_constraint(name, n_fields):
    model = symmetry_model_from_code(get_code(name))
    phi, eta = local_x_map(model), model.constraint_map
    assert phi.cols == n_fields
    assert all(e.is_zero() for row in eta.dagger().compose(phi).entries for e in row)


def test_local_x_symmetries_transport_to_redundant_stabilizers():
    # each local X symmetry of the matter model selects a product of
    # X-generator translates of the gauged code equal to the identity
    from stabgauge.codebook import generalized_toric
    from stabgauge.torus import instantiate, shape_of

    model = ungauge_css(generalized_toric(3, 2))
    code, _ = gauge(model)
    shape = shape_of((4, 4, 4))
    sx_t = instantiate(code.sigma_x, shape)
    n = shape.n_sites
    phi = local_x_map(model)
    for j in range(phi.cols):
        vec = 0
        for q in range(phi.rows):
            for t in phi.entries[q][j].terms:
                vec |= 1 << (q * n + shape.site_index(t))
        assert vec != 0
        assert sx_t.mul_vec(vec) == 0


def test_gauge_operator_single_x_is_star():
    model = symmetry_model_from_code(get_code("ising2d"))
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    img = gauge_operator(model, PauliColumn(2, 1, (one,), (zero,)))
    toric = get_code("toric2d")
    got = img.x_block + img.z_block
    want = tuple(toric.sigma_x.column(0)) + (zero, zero)
    assert columns_equal_up_to_translation(got, want)


def test_gauge_operator_bond_is_single_z():
    model = symmetry_model_from_code(get_code("ising2d"))
    zero = LaurentPoly.zero(2)
    bond = PauliColumn(2, 1, (zero,), (model.constraint_map.entries[0][0],))
    img = gauge_operator(model, bond)
    assert [str(q) for q in img.x_block] == ["0", "0"]
    assert [str(q) for q in img.z_block] == ["1", "0"]


def test_gauge_operator_identity():
    model = symmetry_model_from_code(get_code("ising2d"))
    img = gauge_operator(model, PauliColumn.from_entries(2, (LaurentPoly.zero(2),) * 2))
    assert img.is_identity()


def test_gauge_operator_rejects_nonsymmetric():
    model = symmetry_model_from_code(get_code("ising2d"))
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    single_z = PauliColumn(2, 1, (zero,), (one,))
    with pytest.raises(NotSymmetricError):
        gauge_operator(model, single_z)


def _random_symmetric_pair(model, rng):
    dim = model.dim
    qm = model.matter_q
    eta = model.constraint_map

    def rand_poly():
        terms = set()
        for _ in range(rng.randint(0, 3)):
            terms.add(tuple(rng.randint(-1, 1) for _ in range(dim)))
        return LaurentPoly.from_terms(dim, terms)

    def rand_op():
        x = tuple(rand_poly() for _ in range(qm))
        coeffs = [rand_poly() for _ in range(eta.cols)]
        z = []
        for q in range(qm):
            acc = LaurentPoly.zero(dim)
            for t in range(eta.cols):
                acc = acc + eta.entries[q][t] * coeffs[t]
            z.append(acc)
        return PauliColumn(dim, qm, x, tuple(z))

    return rand_op(), rand_op()


@pytest.mark.parametrize("name", ["ising2d", "fractal_ising"])
def test_gauge_operator_preserves_commutation(name):
    model = symmetry_model_from_code(get_code(name))
    rng = random.Random(13)
    for _ in range(15):
        a, b = _random_symmetric_pair(model, rng)
        ga, gb = gauge_operator(model, a), gauge_operator(model, b)
        # the full pairing polynomial is preserved, not just its constant term
        assert symplectic_pair(a, b) == symplectic_pair(ga, gb)


def test_pi_generators_ising_star():
    model = symmetry_model_from_code(get_code("ising2d"))
    gens = pi_generators(model)
    assert len(gens) == 1
    g = gens[0]
    assert g.x_block[0] == LaurentPoly.one(2)
    assert sum(len(q.terms) for q in g.x_block[1:]) == 4
    assert all(q.is_zero() for q in g.z_block)


def test_pi_generators_fractal_matches_cubic_star():
    model = symmetry_model_from_code(get_code("fractal_ising"))
    gens = pi_generators(model)
    assert len(gens) == 1
    cubic = get_code("cubic")
    got = tuple(gens[0].x_block[1:])
    assert columns_equal_up_to_translation(got, tuple(cubic.sigma_x.column(0)))


def test_model_without_constraints_has_one_x_field_per_matter_type():
    # nothing constrains single-site X, so each matter type has its own field
    phi = local_x_map(SymmetryModel(GeneratorMap.zero(1, 2, 0)))
    assert (phi.rows, phi.cols) == (2, 2)
    assert maps_equal_up_to_translation(phi, GeneratorMap.identity(1, 2))


def test_pi_generators_no_constraints():
    model = SymmetryModel(GeneratorMap.zero(1, 2, 0))
    gens = pi_generators(model)
    assert len(gens) == 2
    for q, g in enumerate(gens):
        assert sum(len(poly.terms) for poly in g.x_block) == 1
        assert g.x_block[q] == LaurentPoly.one(1)


@pytest.mark.parametrize("name", ["ising2d", "fractal_ising"])
def test_disentangler_trivializes_gauss_law(name):
    model = symmetry_model_from_code(get_code(name))
    for q, g in enumerate(pi_generators(model)):
        out = conjugate_by_disentangler(model, g)
        assert all(poly.is_zero() for poly in out.z_block)
        assert all(poly.is_zero() for j, poly in enumerate(out.x_block) if j != q)
        assert out.x_block[q] == LaurentPoly.one(model.dim)


def test_disentangler_gauge_z_grows_matter_z():
    model = symmetry_model_from_code(get_code("ising2d"))
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    gauge_z = PauliColumn(2, 3, (zero,) * 3, (zero, one, zero))
    out = conjugate_by_disentangler(model, gauge_z)
    # site-wise CX conjugation oracle: Z on a target also flips each control
    # adjacent to it, here the two endpoints of the bond
    assert out.z_block[1] == one
    assert out.z_block[0] == model.constraint_map.entries[0][0]
    assert out.x_block == gauge_z.x_block


def test_disentangler_identity():
    model = symmetry_model_from_code(get_code("ising2d"))
    ident = PauliColumn.from_entries(2, (LaurentPoly.zero(2),) * 6)
    assert conjugate_by_disentangler(model, ident) == ident


def test_disentangler_matches_site_wise_cx_oracle():
    # independent check on a 3x3 torus: conjugate explicit qubit sets through
    # CX gates listed one by one
    model = symmetry_model_from_code(get_code("ising2d"))
    L = 3
    sites = list(itertools.product(range(L), range(L)))
    site_idx = {s: i for i, s in enumerate(sites)}
    n = len(sites)
    eta_dag = model.constraint_map.dagger()

    cx_pairs = []  # (control qubit, target qubit) with matter < n, gauge >= n
    for s in sites:
        for t in range(2):
            for mono in eta_dag.entries[t][0].terms:
                g_site = tuple((a + b) % L for a, b in zip(s, mono))
                cx_pairs.append((site_idx[s], n + t * n + site_idx[g_site]))

    def conj_oracle(xset, zset):
        x, z = set(xset), set(zset)
        for c, t in cx_pairs:
            if c in x:
                x ^= {t}
            if t in z:
                z ^= {c}
        return x, z

    rng = random.Random(3)
    for _ in range(10):
        xset = {rng.randrange(3 * n) for _ in range(rng.randint(0, 4))}
        zset = {rng.randrange(3 * n) for _ in range(rng.randint(0, 4))}
        # library path: wrap the sets into polynomial columns
        def to_col(xs, zs):
            blocks_x = [set() for _ in range(3)]
            blocks_z = [set() for _ in range(3)]
            for q in xs:
                blocks_x[q // n].add(sites[q % n])
            for q in zs:
                blocks_z[q // n].add(sites[q % n])
            return PauliColumn(
                2, 3,
                tuple(LaurentPoly.from_terms(2, b) for b in blocks_x),
                tuple(LaurentPoly.from_terms(2, b) for b in blocks_z),
            )

        out = conjugate_by_disentangler(model, to_col(xset, zset))
        ox, oz = conj_oracle(xset, zset)
        want = to_col(ox, oz)
        # compare supports after torus reduction with mod-2 cancellation
        for got_p, want_p in zip(out.entries(), want.entries()):
            reduced = set()
            for t in got_p.terms:
                reduced ^= {tuple(e % L for e in t)}
            assert reduced == set(want_p.terms)
