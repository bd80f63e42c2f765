"""Acceptance suite: one test per shipping criterion.

Every expected number here is either a definitional identity checked
exactly, or a value frozen from the independent brute-force oracle in
naive_oracle.py (which is built from plain numpy elimination and direct
modular enumeration, never from the library's own linear algebra).
"""

import time

from naive_oracle import naive_logical_count
from stabgauge.cluster import build_cluster, cluster_self_dual, cz_conjugate
from stabgauge.codebook import generalized_toric, get_code
from stabgauge.gauging import (
    conjugate_by_disentangler,
    double_gauge_check,
    gauge,
    pi_generators,
    symmetry_model_from_code,
    ungauge_css,
)
from stabgauge.pauli import (
    PauliColumn,
    columns_equal_up_to_translation,
    epsilon_of,
    maps_equal_up_to_translation,
    symplectic_pair,
)
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.smallscale import (
    DenseLattice,
    check_claim1,
    check_groundspace_span,
    check_lemma2,
    check_lemma3,
    check_matrix_elements,
)
from stabgauge.syzygy import bounded_kernel, certification_lengths, certify_on_torus
from stabgauge.torus import count_logical, logical_operator_gap, shape_of


def report(criterion: str, passed: bool, extra: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {criterion}: {status}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def test_criterion_1_symbolic_commutation():
    start = time.perf_counter()
    codes = [get_code(n) for n in ("toric2d", "cubic", "cluster_toric", "cluster_cubic")]
    codes += [generalized_toric(2, 1), generalized_toric(3, 1), generalized_toric(3, 2)]
    ok = True
    for code in codes:
        sigma = code.full_sigma()
        if not all(e.is_zero() for row in epsilon_of(sigma).compose(sigma).entries for e in row):
            ok = False
    elapsed = time.perf_counter() - start
    report(
        "1 symbolic commutation (toric2d, cubic, generalized toric, clusters)",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_criterion_2_ungauging_fidelity():
    cubic_model = ungauge_css(get_code("cubic"))
    want_cubic = [
        (parse_poly("1 + x*y + x*z + y*z", 3),),
        (parse_poly("x + z + x*z + x*y*z", 3),),
    ]
    got_cubic = [cubic_model.constraint_map.column(j) for j in range(2)]
    ok_cubic = all(
        any(columns_equal_up_to_translation(g, w) for g in got_cubic) for w in want_cubic
    )
    toric_model = ungauge_css(get_code("toric2d"))
    want_toric = [(parse_poly("1 + y", 2),), (parse_poly("1 + x", 2),)]
    got_toric = [toric_model.constraint_map.column(j) for j in range(2)]
    ok_toric = all(
        any(columns_equal_up_to_translation(g, w) for g in got_toric) for w in want_toric
    )
    report("2 ungauging fidelity (cubic and toric constraints)", ok_cubic and ok_toric)


def test_criterion_3_gauging_fidelity():
    toric = get_code("toric2d")
    cubic = get_code("cubic")
    ok = True
    for model_name, target, unit_box in [
        ("ising2d", toric, (1, 1)),
        ("fractal_ising", cubic, (1, 1, 1)),
    ]:
        model = symmetry_model_from_code(get_code(model_name))
        code, mu = gauge(model)
        cert = certify_on_torus(mu, certification_lengths(mu))
        ok &= maps_equal_up_to_translation(code.sigma_x, target.sigma_x)
        ok &= maps_equal_up_to_translation(code.sigma_z, target.sigma_z)
        ok &= cert.passed
        kb = bounded_kernel(model.constraint_map, unit_box)
        ok &= len(kb.generators) == target.n_z_types
        ok &= maps_equal_up_to_translation(kb.matrix(), target.sigma_z)
    report("3 gauging fidelity (ising2d -> toric2d, fractal_ising -> cubic)", ok)


def test_criterion_4_duality_round_trip():
    ok = all(double_gauge_check(get_code(n)).passed for n in ("toric2d", "cubic"))
    report("4 duality round trip (both sector orders)", ok)


# cubic encoded-qubit counts, frozen from the naive elimination oracle
CUBIC_K = {(2, 2, 2): 6, (3, 3, 3): 2, (4, 4, 4): 14}


def test_criterion_5_logical_counting():
    start = time.perf_counter()
    toric = get_code("toric2d")
    ok = True
    for L in range(2, 7):
        oracle_k = naive_logical_count(toric, (L, L))
        rep = count_logical(toric, shape_of((L, L)))
        gap = logical_operator_gap(toric, shape_of((L, L)))[2]
        ok &= oracle_k == rep.k_encoded == 2 and gap == 4
    cubic = get_code("cubic")
    for lengths, want in CUBIC_K.items():
        oracle_k = naive_logical_count(cubic, lengths)
        rep = count_logical(cubic, shape_of(lengths))
        ok &= oracle_k == rep.k_encoded == want
    elapsed = time.perf_counter() - start
    report(
        "5 logical counting vs oracle (toric k=2 L<=6; cubic fixtures 6/2/14)",
        ok and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_6_counting_formula_reconciliation():
    ok = True
    for name in ("toric2d", "ising2d"):
        code = get_code(name)
        for L in (2, 3, 4):
            rep = count_logical(code, shape_of((L, L)))
            ok &= rep.bulk_term == 0
            ok &= rep.c_constant == rep.k_encoded
            ok &= rep.k_encoded == rep.n_qubits - rep.stab_rank
            ok &= rep.c_constant == rep.k_encoded - rep.bulk_term
    report("6 counting-formula reconciliation (bulk 0, residual = k)", ok)


def test_criterion_7_disentangler():
    ok = True
    for name in ("ising2d", "fractal_ising"):
        model = symmetry_model_from_code(get_code(name))
        for q, gen in enumerate(pi_generators(model)):
            out = conjugate_by_disentangler(model, gen)
            bare = all(p.is_zero() for p in out.z_block)
            bare &= all(
                p.is_zero() for j, p in enumerate(out.x_block) if j != q
            )
            bare &= out.x_block[q] == LaurentPoly.one(model.dim)
            ok &= bare
    report("7 disentangler maps every Gauss generator to a bare matter X", ok)


def test_criterion_8_smallscale_suite():
    start = time.perf_counter()
    model = symmetry_model_from_code(get_code("ising2d"))
    shape = shape_of((2, 2))
    zero, one = LaurentPoly.zero(2), LaurentPoly.one(2)
    single_x = PauliColumn(2, 1, (one,), (zero,))
    bond = PauliColumn(2, 1, (zero,), (model.constraint_map.entries[0][0],))

    lat = DenseLattice(model, shape)
    reports = [check_lemma2(lat)]
    for op in (single_x, bond):
        reports.append(check_lemma3(lat, op))
        reports.append(check_claim1(lat, op))
        reports.append(check_matrix_elements(lat, op))
    ground = check_groundspace_span(lat)
    deviations = [r.max_deviation for r in reports]
    ok = all(r.passed for r in reports) and ground.passed
    ok &= max(deviations) == 0
    elapsed = time.perf_counter() - start
    report(
        "8 dense suite on ising2d (2,2): gram, intertwining, inversion, "
        "matrix elements x20, ground span",
        ok and elapsed < 60.0,
        f"max dev {max(deviations):.2e}, {elapsed:.2f}s",
    )


def test_criterion_9_cluster_properties():
    ok = True
    for name in ("ising2d", "fractal_ising"):
        model = symmetry_model_from_code(get_code(name))
        stabs = build_cluster(model).generator_columns()
        for a in stabs:
            for b in stabs:
                ok &= symplectic_pair(a, b).is_zero()
        for s in stabs:
            out = cz_conjugate(model, s)
            ok &= all(p.is_zero() for p in out.z_block)
            ok &= sum(len(p.terms) for p in out.x_block) == 1
        ok &= cluster_self_dual(model)
    report(
        "9 cluster models: commute, CZ layer strips to single-site X, "
        "double sublattice gauging is the identity up to swap and exchange",
        ok,
    )


def test_criterion_10_syzygy_certification():
    ok = True
    details = []
    for name, lengths in [("ising2d", (6, 6)), ("fractal_ising", (4, 4, 4))]:
        model = symmetry_model_from_code(get_code(name))
        kb = bounded_kernel(model.constraint_map)
        rep = certify_on_torus(kb, lengths)
        ok &= rep.passed and rep.containment and rep.missing_local == 0
        details.append(
            f"{name}{lengths}: kernel {rep.kernel_dim}, span {rep.span_dim}, "
            f"wrapping {rep.wrapping_deficit}"
        )
    report("10 syzygy certification on (6,6) and (4,4,4)", ok, "; ".join(details))


def test_acceptance_wrapping_classes_are_the_gauged_logicals():
    # regression companion to criterion 10: the kernel elements unreachable
    # by translates are exactly the encoded qubits of the gauged code
    model = symmetry_model_from_code(get_code("ising2d"))
    rep = certify_on_torus(bounded_kernel(model.constraint_map), (6, 6))
    assert (rep.kernel_dim, rep.span_dim, rep.wrapping_deficit) == (37, 35, 2)
    model = symmetry_model_from_code(get_code("fractal_ising"))
    rep = certify_on_torus(bounded_kernel(model.constraint_map), (4, 4, 4))
    assert rep.wrapping_deficit == CUBIC_K[(4, 4, 4)]
