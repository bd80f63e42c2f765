import itertools

import numpy as np
import pytest

from naive_oracle import (
    naive_box_system,
    naive_nullspace,
    naive_rank,
    naive_solve,
    naive_torus_column,
)
from stabgauge import syzygy as syzygy_mod
from stabgauge.codebook import codebook_names, get_code
from stabgauge.gauging import NotSymmetricError, symmetry_model_from_code
from stabgauge.pauli import (
    CodeSpec,
    GeneratorMap,
    columns_equal_up_to_translation,
    verify_stabilizer,
)
from stabgauge.poly import LaurentPoly, parse_poly
from stabgauge.syzygy import (
    KernelBasis,
    bounded_kernel,
    bounded_preimage,
    certification_lengths,
    certify_on_torus,
)
from stabgauge.torus import shape_of


def ising_eta():
    return symmetry_model_from_code(get_code("ising2d")).constraint_map


def fractal_eta():
    return symmetry_model_from_code(get_code("fractal_ising")).constraint_map


def test_ising_kernel_is_plaquette():
    kb = bounded_kernel(ising_eta(), (1, 1))
    assert len(kb.generators) == 1
    assert kb.generators[0] == (parse_poly("1 + x", 2), parse_poly("1 + y", 2))


def test_cubic_kernel_recovers_z_generator():
    kb = bounded_kernel(fractal_eta(), (1, 1, 1))
    assert len(kb.generators) == 1
    sigma_z = get_code("cubic").sigma_z
    assert columns_equal_up_to_translation(kb.generators[0], sigma_z.column(0))


def test_bigger_box_reduces_to_one_generator():
    kb = bounded_kernel(fractal_eta(), (2, 2, 2))
    assert len(kb.generators) == 1


def test_unit_map_has_empty_kernel():
    kb = bounded_kernel(GeneratorMap.identity(2, 1), (1, 1))
    assert kb.generators == ()


def test_kernel_generators_satisfy_exact_identity():
    eta = ising_eta()
    kb = bounded_kernel(eta, (2, 2))
    for g in kb.generators:
        col = GeneratorMap(2, tuple((p,) for p in g))
        assert all(e.is_zero() for row in eta.compose(col).entries for e in row)


def test_box_monotonicity():
    eta = ising_eta()
    small = bounded_kernel(eta, (1, 1))
    big = bounded_kernel(eta, (3, 3))
    # old generators remain in the span of the bigger basis's translates:
    # certified spans on a common torus must agree
    rep_small = certify_on_torus(small, (8, 8))
    rep_big = certify_on_torus(big, (8, 8))
    assert rep_small.span_dim == rep_big.span_dim


def test_negative_box_rejected():
    with pytest.raises(ValueError):
        bounded_kernel(ising_eta(), (1, -1))


def test_box_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        bounded_kernel(ising_eta(), (1, 1, 1))


def test_certify_ising_on_6x6():
    kb = bounded_kernel(ising_eta(), (1, 1))
    rep = certify_on_torus(kb, (6, 6))
    assert rep.passed
    assert rep.containment
    # computed with the torus nullspace oracle: translates miss exactly the
    # two wrapping classes
    assert rep.kernel_dim == 37
    assert rep.span_dim == 35
    assert rep.wrapping_deficit == 2


def test_certify_kernel_dim_matches_oracle():
    import numpy as np
    from stabgauge.torus import instantiate, shape_of

    kb = bounded_kernel(ising_eta(), (1, 1))
    mat = instantiate(kb.parent, shape_of((6, 6)))
    dense = np.array([[(r >> j) & 1 for j in range(mat.cols)] for r in mat.data], dtype=np.uint8)
    assert len(naive_nullspace(dense)) == 37


def test_certify_cubic_on_4x4x4():
    kb = bounded_kernel(fractal_eta(), (1, 1, 1))
    rep = certify_on_torus(kb, (4, 4, 4))
    assert rep.passed
    # wrapping classes equal the encoded-qubit count of the gauged code
    assert rep.wrapping_deficit == 14


def test_certify_fails_after_deleting_generator():
    kb = bounded_kernel(ising_eta(), (1, 1))
    broken = KernelBasis(parent=kb.parent, box=kb.box, generators=[])
    rep = certify_on_torus(broken, (6, 6))
    assert not rep.passed
    assert rep.missing_local > 0


def test_certify_rejects_small_torus():
    kb = bounded_kernel(ising_eta(), (1, 1))
    with pytest.raises(ValueError):
        certify_on_torus(kb, (2, 2))


def test_empty_kernel_certifies_vacuously():
    kb = bounded_kernel(GeneratorMap.identity(2, 1), (1, 1))
    rep = certify_on_torus(kb, (5, 5))
    assert rep.passed
    assert rep.kernel_dim == 0



def _dense_translates(cols, width, lengths) -> np.ndarray:
    """Every torus translate of every column (of `width` entries), placed term
    by term, as dense 0/1 rows in the (type, row-major site) layout."""
    shape = shape_of(lengths)
    size = width * shape.n_sites
    rows = []
    for col in cols:
        for site in np.ndindex(*lengths):
            bits = naive_torus_column(tuple(p.shift(site) for p in col), shape)
            rows.append([(bits >> b) & 1 for b in range(size)])
    return np.array(rows, dtype=np.uint8).reshape(len(rows), size)


def _window_columns(rep, n_types) -> list[int]:
    """Torus columns of every type on the sites of the report's window."""
    n = int(np.prod(rep.lengths))
    sites = itertools.product(*(range(w + 1) for w in rep.window))
    return sorted(
        t * n + int(np.ravel_multi_index(c, rep.lengths)) for c in sites for t in range(n_types)
    )


def _sector_kernels(name):
    code = get_code(name)
    for m in (code.sigma_x, code.sigma_z):
        if m is not None:
            yield bounded_kernel(m)
            yield bounded_kernel(m.dagger())


@pytest.mark.parametrize("name", ["ising2d", "toric2d", "generalized_toric(2,1)"])
def test_window_local_kernel_matches_oracle(name):
    for kb in _sector_kernels(name):
        parent = kb.parent
        lengths = certification_lengths(kb)
        # one column per translate of a parent column
        cols = [parent.column(t) for t in range(parent.cols)]
        mat = _dense_translates(cols, parent.rows, lengths).T
        dropped = [kb.generators[:i] + kb.generators[i + 1:] for i in range(len(kb.generators))]
        for gens in [kb.generators] + dropped:
            rep = certify_on_torus(KernelBasis(parent, kb.box, list(gens)), lengths)
            window = _window_columns(rep, parent.cols)
            local = naive_nullspace(mat[:, window])
            assert rep.local_kernel_dim == len(local)
            span = _dense_translates(gens, parent.cols, lengths)
            span_rank = naive_rank(span)
            missing = 0
            for v in local:
                full = np.zeros(mat.shape[1], dtype=np.uint8)
                full[window] = v
                missing += naive_rank(np.vstack([span, full])) > span_rank
            assert rep.missing_local == missing


def test_window_local_kernel_dim_matches_oracle_fractal():
    kb = bounded_kernel(fractal_eta())
    parent = kb.parent
    cols = [parent.column(t) for t in range(parent.cols)]
    mat = _dense_translates(cols, parent.rows, (6, 6, 6)).T
    rep = certify_on_torus(kb, (6, 6, 6))
    assert rep.local_kernel_dim == len(naive_nullspace(mat[:, _window_columns(rep, parent.cols)]))


def test_box_must_be_integers():
    sigma_z = get_code("ising2d").sigma_z
    with pytest.raises(ValueError, match="integers"):
        bounded_kernel(sigma_z, (1.5, 1.9))


@pytest.mark.parametrize("lengths", [(6.7, 6.2, 6.9), ("6", "6", "6")])
def test_certify_lengths_must_be_integers(lengths):
    kb = bounded_kernel(get_code("cubic").sigma_x)
    with pytest.raises(ValueError, match="integers"):
        certify_on_torus(kb, lengths)


def test_list_arguments_share_the_memo_entry_of_tuples():
    m = get_code("cubic").sigma_x
    kb = bounded_kernel(m, [1, 1, 1])
    assert bounded_kernel(m, (1, 1, 1)) is kb
    assert bounded_kernel(m) is kb  # the default box is m's extent, (1, 1, 1)
    report = certify_on_torus(kb, [6, 6, 6])
    assert certify_on_torus(kb, (6, 6, 6)) is report
    assert certify_on_torus(kb, shape_of((6, 6, 6)).lengths) is report
    assert syzygy_mod._bounded_kernel.cache_info().misses == 1
    assert syzygy_mod._certify.cache_info().misses == 1


@pytest.mark.parametrize("name", ["cubic", "toric2d", "cluster_cubic"])
def test_memoized_results_hash(name):
    # a memo hands one object to every caller, so each result is immutable
    code = get_code(name)
    assert verify_stabilizer(code).passed
    m = code.sigma_x if code.css else code.sigma
    kb = bounded_kernel(m)
    for value in (verify_stabilizer(code), kb, certify_on_torus(kb, certification_lengths(kb))):
        hash(value)
    one = LaurentPoly.one(1)
    bad = CodeSpec(name="xz", css=True, sigma_x=GeneratorMap(1, ((one,),)),
                   sigma_z=GeneratorMap(1, ((one,),)))
    failed = verify_stabilizer(bad)
    assert not failed.passed
    hash(failed)


def with_zero_column(m):
    zero = LaurentPoly.zero(m.dim)
    return GeneratorMap(m.dim, [(zero,) + row for row in m.entries])


CONSTRAINT_MAPS = {
    n: symmetry_model_from_code(get_code(n)).constraint_map
    for n in [n for n in codebook_names() if "(" not in n]
    + ["generalized_toric(2,1)", "generalized_toric(3,1)", "generalized_toric(3,2)"]
    if get_code(n).css
}
CONSTRAINT_MAPS["ising2d-zero-column"] = with_zero_column(CONSTRAINT_MAPS["ising2d"])


@pytest.mark.parametrize("name", list(CONSTRAINT_MAPS))
def test_preimage_of_column_translate_is_unit_monomial(name):
    m = CONSTRAINT_MAPS[name]
    zero = LaurentPoly.zero(m.dim)
    for t in range(m.cols):
        col = m.column(t)
        if all(p.is_zero() for p in col):
            continue
        for s in itertools.product(range(-2, 3), repeat=m.dim):
            target = tuple(p.shift(s) for p in col)
            want = tuple(LaurentPoly.monomial(s) if j == t else zero for j in range(m.cols))
            assert bounded_preimage(m, target) == want


@pytest.mark.parametrize("target_len", [0, 2])
def test_preimage_rejects_target_of_wrong_length(target_len):
    sigma_z = get_code("ising2d").sigma_z
    target = (parse_poly("1 + x", 2),) * target_len
    with pytest.raises(ValueError, match="entries"):
        bounded_preimage(sigma_z, target)


def _maps_and_daggers():
    for name, m in CONSTRAINT_MAPS.items():
        yield pytest.param(m, id=name)
        yield pytest.param(m.dagger(), id=f"{name}-dagger")


def _points_in_box(lo, hi):
    return [tuple(int(a) for a in np.add(lo, k)) for k in np.ndindex(*(np.subtract(hi, lo) + 1))]


@pytest.mark.parametrize("m", _maps_and_daggers())
def test_kernel_translates_span_the_naive_box_nullspace(m):
    kb = bounded_kernel(m)
    lo, hi = (0,) * m.dim, kb.box
    a, _ = naive_box_system(m, lo, hi)
    points = {e: k for k, e in enumerate(_points_in_box(lo, hi))}
    translates = []
    for g in kb.generators:
        top = [max(t[i] for p in g for t in p.terms) for i in range(m.dim)]
        for sh in itertools.product(*(range(b - e + 1) for b, e in zip(hi, top))):
            v = np.zeros(a.shape[1], dtype=np.uint8)
            for j, p in enumerate(g):
                for t in p.terms:
                    v[j * len(points) + points[tuple(np.add(t, sh))]] = 1
            translates.append(v)
    span = np.array(translates, dtype=np.uint8).reshape(len(translates), a.shape[1])
    null = naive_nullspace(a)
    assert naive_rank(span) == len(null)
    assert naive_rank(np.vstack([span, *null])) == len(null)


@pytest.mark.parametrize("m", _maps_and_daggers())
def test_preimage_of_column_sums_matches_naive_solve(m):
    cols = [m.column(t) for t in range(m.cols)]
    # the box of m is taken to contain the origin
    terms = np.array([(0,) * m.dim] + [t for row in m.entries for p in row for t in p.terms])
    mlo, mhi = terms.min(axis=0), terms.max(axis=0)
    shifts = [(1,) + (0,) * (m.dim - 1), (0,) * (m.dim - 1) + (2,), (1,) * m.dim]
    targets = [
        tuple(p + q.shift(s) for p, q in zip(cols[i], cols[j]))
        for i, j in itertools.combinations_with_replacement(range(m.cols), 2)
        for s in shifts
    ]
    targets.append((LaurentPoly.one(m.dim),) + (LaurentPoly.zero(m.dim),) * (m.rows - 1))
    solved = 0
    for target in targets:
        if not any(target) or any(columns_equal_up_to_translation(target, c) for c in cols):
            continue
        tterms = np.array([t for p in target for t in p.terms])
        lo, hi = tterms.min(axis=0) - mhi, tterms.max(axis=0) - mlo
        a, b = naive_box_system(m, lo, hi, target)
        x = naive_solve(a, b)
        if x is None:
            with pytest.raises(NotSymmetricError):
                bounded_preimage(m, target)
            continue
        points = _points_in_box(lo, hi)
        n = len(points)
        want = tuple(
            LaurentPoly.from_terms(m.dim, [e for k, e in enumerate(points) if x[j * n + k]])
            for j in range(m.cols)
        )
        assert bounded_preimage(m, target) == want
        solved += 1
    assert solved > 0
