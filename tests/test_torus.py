import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_oracle import (
    naive_logical_count,
    naive_nullspace,
    naive_torus_column,
    stabilizer_rows,
)
from stabgauge import pauli as pauli_mod
from stabgauge import syzygy as syzygy_mod
from stabgauge import torus as torus_mod
from stabgauge.codebook import codebook_names, dumps_code, get_code, loads_code
from stabgauge.gf2 import Gf2Matrix
from stabgauge.pauli import CodeSpec, GeneratorMap, epsilon_of, verify_stabilizer
from stabgauge.poly import LaurentPoly
from stabgauge.torus import (
    TorusShape,
    count_logical,
    instantiate,
    logical_operator_gap,
    place_column,
    rank_on_torus,
    read_column,
    shape_of,
)


def columns(mat: Gf2Matrix) -> list[int]:
    """Column bitmasks of a matrix, read bit by bit off its rows."""
    return [sum(((r >> j) & 1) << i for i, r in enumerate(mat.data)) for j in range(mat.cols)]


def test_identity_map_instantiates_to_identity():
    eye = GeneratorMap.identity(1, 1)
    mat = instantiate(eye, shape_of((5,)))
    assert (mat.rows, mat.cols, mat.data) == (5, 5, [1 << i for i in range(5)])


def test_toric_sigma_on_2x2():
    code = get_code("toric2d")
    mat = instantiate(code.full_sigma(), shape_of((2, 2)))
    assert (mat.rows, mat.cols) == (16, 8)
    assert mat.rank() == 6


def test_instantiated_epsilon_annihilates_sigma():
    for name, lengths in [
        ("toric2d", (2, 3)),
        ("cubic", (2, 2, 2)),
        ("ising2d", (3, 3)),
        ("cluster_toric", (2, 2)),
    ]:
        code = get_code(name)
        sigma = code.full_sigma()
        shape = shape_of(lengths)
        # the dagger's rows are the columns of the instantiated sigma
        eps = instantiate(epsilon_of(sigma), shape)
        assert all(eps.mul_vec(v) == 0 for v in instantiate(sigma.dagger(), shape).data), name


@pytest.mark.parametrize("L", [2, 3, 4])
def test_toric_counts_match_oracle(L):
    code = get_code("toric2d")
    report = count_logical(code, shape_of((L, L)))
    assert report.k_encoded == naive_logical_count(code, (L, L)) == 2
    assert report.n_qubits == 2 * L * L
    assert report.k_encoded == report.n_qubits - report.stab_rank


# frozen from the naive elimination oracle
CUBIC_K = {(2, 2, 2): 6, (3, 3, 3): 2, (4, 4, 4): 14}


@pytest.mark.parametrize("lengths", sorted(CUBIC_K))
def test_cubic_counts_match_oracle_fixtures(lengths):
    code = get_code("cubic")
    assert naive_logical_count(code, lengths) == CUBIC_K[lengths]
    report = count_logical(code, shape_of(lengths))
    assert report.k_encoded == CUBIC_K[lengths]


@pytest.mark.parametrize("L", [4, 8, 16])
def test_cubic_counts_match_closed_form(L):
    # Haah's cubic code encodes 4L - 2 qubits on the L^3 torus for L = 2^p (arXiv:1101.1962)
    report = count_logical(get_code("cubic"), shape_of((L, L, L)))
    assert report.k_encoded == 4 * L - 2


@pytest.mark.parametrize("L", [2, 3, 4])
def test_ising_has_one_encoded_qubit(L):
    code = get_code("ising2d")
    report = count_logical(code, shape_of((L, L)))
    assert report.k_encoded == 1
    # bond translates have one dependency on the torus
    assert report.stab_rank == L * L - 1


def test_gap_is_twice_k_toric():
    code = get_code("toric2d")
    dim_ker, rank_im, gap = logical_operator_gap(code, shape_of((3, 3)))
    assert gap == 4
    assert dim_ker - rank_im == gap


def test_gap_is_twice_k_cubic():
    code = get_code("cubic")
    _, _, gap = logical_operator_gap(code, shape_of((2, 2, 2)))
    assert gap == 2 * CUBIC_K[(2, 2, 2)]


def test_gap_single_x_stabilizer_chain():
    # X on every site: unique stabilized state, no logical operators
    one = LaurentPoly.one(1)
    code = CodeSpec(
        name="xchain", css=True,
        sigma_x=GeneratorMap(1, ((one,),)), sigma_z=GeneratorMap.zero(1, 1, 0),
    )
    dim_ker, rank_im, gap = logical_operator_gap(code, shape_of((2,)))
    report = count_logical(code, shape_of((2,)))
    assert report.k_encoded == 0
    assert gap == 0 == 2 * report.k_encoded


def test_counts_invariant_under_axis_permutation():
    code = get_code("toric2d")
    a = count_logical(code, shape_of((3, 4))).k_encoded
    b = count_logical(code, shape_of((4, 3))).k_encoded
    assert a == b == 2


def test_bulk_term_and_residual():
    toric = get_code("toric2d")
    ising = get_code("ising2d")
    for lengths in [(2, 2), (3, 3), (4, 4)]:
        rt = count_logical(toric, shape_of(lengths))
        ri = count_logical(ising, shape_of(lengths))
        assert rt.bulk_term == 0 and rt.c_constant == rt.k_encoded
        assert ri.bulk_term == 0 and ri.c_constant == ri.k_encoded


@pytest.mark.parametrize("name,tori", [
    ("ising2d", [(3, 3), (4, 2)]),
    ("fractal_ising", [(2, 2, 2), (4, 4, 4)]),
])
def test_x_only_code_counts_like_its_z_only_original(name, tori):
    # the sitewise Hadamard takes the Z-only code to an X-only one with the
    # same counts, so both sector choices of the local-count formula agree
    code = get_code(name)
    swapped = CodeSpec(name=f"{name}-swapped", css=True,
                       sigma_x=code.sigma_z, sigma_z=code.sigma_x)
    for lengths in tori:
        want = count_logical(code, shape_of(lengths))
        got = count_logical(swapped, shape_of(lengths))
        assert want.bulk_term is not None
        assert (got.k_encoded, got.bulk_term, got.c_constant) == (
            want.k_encoded, want.bulk_term, want.c_constant)


def test_non_css_bulk_unavailable():
    report = count_logical(get_code("cluster_toric"), shape_of((2, 2)))
    assert report.bulk_term is None and report.c_constant is None
    assert report.k_encoded == report.n_qubits - report.stab_rank


def test_instantiation_deterministic():
    code = get_code("cubic")
    shape = shape_of((2, 2, 2))
    assert instantiate(code.full_sigma(), shape).data == instantiate(code.full_sigma(), shape).data


def test_rejects_noncommuting_code():
    one = LaurentPoly.one(1)
    zero = LaurentPoly.zero(1)
    bad = CodeSpec(
        name="xz", css=False,
        sigma=GeneratorMap(1, ((one, zero), (zero, one))),
    )
    assert not verify_stabilizer(bad).passed
    with pytest.raises(ValueError):
        count_logical(bad, shape_of((2,)))
    with pytest.raises(ValueError, match="code is not commuting"):
        logical_operator_gap(bad, shape_of((2,)))


def test_instantiate_matches_oracle_rows():
    # same matrix content as the independent enumeration, up to transpose
    code = get_code("toric2d")
    lengths = (3, 2)
    rows = stabilizer_rows(code, lengths)
    mat = instantiate(code.full_sigma(), shape_of(lengths))
    want = [sum(1 << j for j, v in enumerate(r) if v) for r in rows]
    assert sorted(columns(mat)) == sorted(want)


@st.composite
def maps_on_tori(draw):
    """Small maps with exponents in [-5, 5] on tori of 1-3 axes of lengths
    2-5, so terms wrap from both sides and often fold onto one site, and
    every axis stride of a 3-axis torus is exercised; some columns repeat
    a term shifted by a whole period."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim)))
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-5, 5)] * dim)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            terms = draw(st.lists(exps, max_size=3))
            if terms and draw(st.booleans()):
                axis = draw(st.integers(0, dim - 1))
                terms.append(tuple(e + lengths[axis] * (a == axis) for a, e in enumerate(terms[0])))
            row.append(LaurentPoly.from_terms(dim, terms))
        entries.append(row)
    return GeneratorMap(dim, entries), shape_of(lengths)


# x^3 and x land on one site of a length-2 circle and cancel
@given(maps_on_tori())
@example((GeneratorMap(1, [[LaurentPoly.from_terms(1, [(3,), (1,)])]]), shape_of((2,))))
@settings(max_examples=200, deadline=None)
def test_instantiate_columns_match_term_placement(case):
    m, shape = case
    cols = columns(instantiate(m, shape))
    n = shape.n_sites
    for t in range(m.cols):
        for s, site in enumerate(shape.sites()):
            shifted = [p.shift(site) for p in m.column(t)]
            assert cols[t * n + s] == naive_torus_column(shifted, shape)


@st.composite
def columns_in_torus(draw):
    """A column of 1-3 entries with exponents in [0, L) on a torus of 1-3
    axes of lengths 2-5, so no two terms fold onto one site."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim)))
    exps = st.tuples(*[st.integers(0, l - 1) for l in lengths])
    col = tuple(LaurentPoly(dim, frozenset(draw(st.lists(exps, max_size=4))))
                for _ in range(draw(st.integers(1, 3))))
    return col, shape_of(lengths)


@given(columns_in_torus())
@settings(max_examples=200, deadline=None)
def test_read_column_inverts_place_column(case):
    col, shape = case
    assert read_column(place_column(col, shape), shape, len(col)) == col


# x^3 and x land on one site of a length-2 circle and cancel
@given(maps_on_tori())
@example((GeneratorMap(1, [[LaurentPoly.from_terms(1, [(3,), (1,)])]]), shape_of((2,))))
@settings(max_examples=200, deadline=None)
def test_placed_translate_is_row_of_instantiated_dagger(case):
    m, shape = case
    n = shape.n_sites
    rows = instantiate(m.dagger(), shape).data
    for t in range(m.cols):
        for s, site in enumerate(shape.sites()):
            assert place_column([p.shift(site) for p in m.column(t)], shape) == rows[t * n + s]


@given(columns_in_torus())
@settings(max_examples=200, deadline=None)
def test_unwrapped_translate_is_placed_bits_shifted_by_site_index(case):
    col, shape = case
    top = [max((e[a] for p in col for e in p.terms), default=0) for a in range(shape.dim)]
    rows = instantiate(GeneratorMap.from_columns(shape.dim, len(col), [col]).dagger(), shape).data
    bits = place_column(col, shape)
    for s, site in enumerate(shape.sites()):
        if all(c + e < l for c, e, l in zip(site, top, shape.lengths)):
            assert rows[s] == bits << shape.site_index(site)


@given(maps_on_tori())
@settings(max_examples=200, deadline=None)
def test_dagger_instantiates_to_transpose(case):
    m, shape = case
    mat, dag = instantiate(m, shape), instantiate(m.dagger(), shape)
    assert (dag.rows, dag.cols, dag.data) == (mat.cols, mat.rows, columns(mat))


@given(maps_on_tori())
@settings(max_examples=200, deadline=None)
def test_rank_on_torus_matches_rank(case):
    m, shape = case
    assert rank_on_torus(m, shape) == instantiate(m, shape).rank()


SPLIT_TORI = [(15,), (21,), (11, 6), (36, 45), (3, 5, 6), (12, 5, 9), (6, 10, 14)]


@st.composite
def maps_on_split_tori(draw, tori=SPLIT_TORI):
    """Small maps with exponents in [-12, 12] on tori whose lengths have odd
    parts, so x^L + 1 has several factors per axis; 11 keeps its axis whole."""
    lengths = draw(st.sampled_from(tori))
    dim = len(lengths)
    exps = st.tuples(*[st.integers(-12, 12)] * dim)
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entries = [[LaurentPoly.from_terms(dim, draw(st.lists(exps, max_size=3)))
                for _ in range(cols)] for _ in range(rows)]
    return GeneratorMap(dim, entries), shape_of(lengths)


@given(maps_on_split_tori())
@settings(max_examples=40, deadline=None)
def test_block_ranks_add_up_to_the_rank(case):
    # the block sum is called directly, so tori below SPLIT_SITES exercise it too
    m, shape = case
    assert torus_mod._block_rank(m, shape) == instantiate(m, shape).rank()


def clmod(a: int, g: int) -> int:
    """a modulo g for bit polynomials over GF(2), by long division."""
    while a.bit_length() >= g.bit_length():
        a ^= g << a.bit_length() - g.bit_length()
    return a


def reduce_torus_row(row: int, shape, block, n_cols: int) -> int:
    """A torus row, one N-bit block per column, with each term reduced
    modulo the block's factor g on every axis, on the block's row-major
    sites: the monomials below x^(deg g) on each axis."""
    dims = [g.bit_length() - 1 for g in block]
    n, nb = shape.n_sites, math.prod(dims)
    out = 0
    for b in range(n_cols * n):
        if (row >> b) & 1:
            t, j = divmod(b, n)
            digits = [[k for k in range(d) if (clmod(1 << c, g) >> k) & 1]
                      for c, g, d in zip(shape.site(j), block, dims)]
            for ks in itertools.product(*digits):
                out ^= 1 << t * nb + sum(k * math.prod(dims[a + 1:]) for a, k in enumerate(ks))
    return out


# small tori only: every site of every block is checked, whole axes included
@given(maps_on_split_tori([(15,), (12,), (6, 10), (9, 5), (3, 5, 6), (6, 3, 5)]))
@settings(max_examples=40, deadline=None)
def test_block_rows_are_the_torus_rows_reduced_modulo_each_factor(case):
    m, shape = case
    rows, n = instantiate(m, shape).data, shape.n_sites
    factors = [torus_mod._axis_factors(l) + (1 << l | 1,) for l in shape.lengths]
    for block in itertools.product(*factors):
        dims = [g.bit_length() - 1 for g in block]
        nb = math.prod(dims)
        got = torus_mod._block_rows(m, shape.lengths, block)
        assert len(got) == m.rows * nb
        for r in range(m.rows):
            for sb, site in enumerate(itertools.product(*map(range, dims))):
                torus_row = rows[r * n + shape.site_index(site)]
                assert got[r * nb + sb] == reduce_torus_row(torus_row, shape, block, m.cols)


def clmul(a: int, b: int) -> int:
    """Product of two bit polynomials over GF(2)."""
    out = 0
    while b:
        k = b.bit_length() - 1
        b ^= 1 << k
        out ^= a << k
    return out


def clgcd(a: int, b: int) -> int:
    """Greatest common divisor of two bit polynomials over GF(2)."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << a.bit_length() - b.bit_length()
        a, b = b, a
    return a


@pytest.mark.parametrize("L", range(2, 65))
def test_axis_factors_are_a_coprime_factorization(L):
    factors = torus_mod._axis_factors(L)
    product = 1
    for g in factors:
        product = clmul(product, g)
    assert product == 1 << L | 1
    for i, g in enumerate(factors):
        for h in factors[i + 1:]:
            assert clgcd(g, h) == 1


@pytest.mark.parametrize("name, L, k", [("cubic", 24, 30), ("cubic", 27, 2), ("toric2d", 48, 2)])
def test_counts_on_split_tori(name, L, k):
    code = get_code(name)
    shape = shape_of((L,) * code.dim)
    assert shape.n_sites >= torus_mod.SPLIT_SITES
    assert count_logical(code, shape).k_encoded == k


def test_map_without_columns_instantiates_to_no_columns():
    m = GeneratorMap.zero(2, 3, 0)
    shape = shape_of((2, 3))
    mat = instantiate(m, shape)
    assert (mat.rows, mat.cols) == (18, 0)
    assert mat.data == [0] * 18
    dagger = instantiate(m.dagger(), shape)
    assert (dagger.rows, dagger.cols, dagger.data) == (0, 18, [])
    assert rank_on_torus(m, shape) == 0


def test_map_without_rows_instantiates_to_no_rows():
    m = GeneratorMap(2, ())
    shape = shape_of((3, 2))
    mat = instantiate(m, shape)
    assert (mat.rows, mat.cols, mat.data) == (0, 0, [])
    assert rank_on_torus(m, shape) == 0


UNEVEN_TORI = {2: [(2, 3), (3, 5), (4, 2)], 3: [(2, 3, 4), (3, 2, 5)]}
CODEBOOK = [n for n in codebook_names() if n != "generalized_toric(d,k)"] + [
    "generalized_toric(2,1)",
    "generalized_toric(3,1)",
]
# frozen from the naive elimination oracle
UNEVEN_K = {
    ("cubic", (2, 3, 4)): 4,
    ("fractal_ising", (3, 2, 5)): 1,
    ("generalized_toric(3,1)", (3, 2, 5)): 3,
}


@pytest.mark.parametrize(
    "name, lengths",
    [
        pytest.param(n, lengths, id=f"{n}-{'x'.join(map(str, lengths))}")
        for n in CODEBOOK
        for lengths in UNEVEN_TORI[get_code(n).dim]
    ],
)
def test_counts_match_oracle_on_uneven_tori(name, lengths):
    code = get_code(name)
    shape = shape_of(lengths)
    k = count_logical(code, shape).k_encoded
    assert k == naive_logical_count(code, lengths) == UNEVEN_K.get((name, lengths), k)
    dim_ker, _, gap = logical_operator_gap(code, shape)
    assert gap == 2 * k
    # ker epsilon is the commutant: the Pauli vectors whose symplectic pairing
    # with every translate vanishes, i.e. the kernel of the swapped rows
    rows = stabilizer_rows(code, lengths)
    half = rows.shape[1] // 2
    assert dim_ker == len(naive_nullspace(np.hstack([rows[:, half:], rows[:, :half]])))


def test_torus_shape_takes_any_integer_sequence():
    shape = TorusShape([4, 4, 4])
    assert shape.lengths == (4, 4, 4) and shape == shape_of((4, 4, 4))
    assert hash(shape) == hash(shape_of((4, 4, 4)))
    assert TorusShape((np.int64(3), 2)).lengths == (3, 2)


@pytest.mark.parametrize("make", [TorusShape, shape_of])
@pytest.mark.parametrize("lengths", [(4.5, 4), (4.0, 4), ("4", 4)])
def test_torus_shape_rejects_non_integer_lengths(make, lengths):
    with pytest.raises(ValueError, match="integers"):
        make(lengths)


def misses(memo) -> int:
    """Calls of a memoized primitive that did the work in this test."""
    return memo.cache_info().misses


def test_count_certifies_once_per_sector_map():
    # the local kernels depend on the code only, so a k(L) scan searches and
    # certifies ker s and ker s-dagger once, not once per torus
    code = get_code("cubic")
    # k = 4L - 2 at L = 2^p; the L = 12 value is frozen from this code
    for L, k in [(4, 14), (8, 30), (12, 14)]:
        report = count_logical(code, shape_of((L, L, L)))
        assert (report.k_encoded, report.bulk_term) == (k, 0)
    assert misses(syzygy_mod._bounded_kernel) == misses(syzygy_mod._certify) == 2


def test_count_and_gap_rank_each_sector_once(monkeypatch):
    # each _rank miss instantiates its map once, through the torus module
    ranked = []
    instantiate = torus_mod.instantiate

    def counting(m, shape):
        ranked.append((m, shape.lengths))
        return instantiate(m, shape)

    monkeypatch.setattr(torus_mod, "instantiate", counting)
    code = get_code("cubic")
    shape = shape_of((4, 4, 4))
    report = count_logical(code, shape)
    assert logical_operator_gap(code, shape) == (
        2 * report.n_qubits - report.stab_rank, report.stab_rank, 2 * report.k_encoded)
    # both sectors on this torus, then s and s-dagger on the certification
    # torus as one entry; all on the wide side
    wide_x, wide_z = code.sigma_x.dagger(), code.sigma_z.dagger()
    assert ranked == [(wide_x, (4, 4, 4)), (wide_z, (4, 4, 4)), (wide_x, (6, 6, 6))]
    assert misses(pauli_mod._verify) == 1


def test_split_torus_ranks_each_sector_once(monkeypatch):
    # a torus of at least SPLIT_SITES sites is ranked block by block, with no
    # instantiation of the whole torus; each sector misses _rank once
    ranked, instantiated = [], []
    block_rank, instantiate = torus_mod._block_rank, torus_mod.instantiate

    def counting_blocks(m, shape):
        ranked.append((m, shape.lengths))
        return block_rank(m, shape)

    def counting_instantiate(m, shape):
        instantiated.append(shape.lengths)
        return instantiate(m, shape)

    monkeypatch.setattr(torus_mod, "_block_rank", counting_blocks)
    monkeypatch.setattr(torus_mod, "instantiate", counting_instantiate)
    code = get_code("cubic")
    shape = shape_of((12, 12, 12))
    report = count_logical(code, shape)
    assert logical_operator_gap(code, shape) == (
        2 * report.n_qubits - report.stab_rank, report.stab_rank, 2 * report.k_encoded)
    wide_x, wide_z = code.sigma_x.dagger(), code.sigma_z.dagger()
    assert ranked == [(wide_x, (12, 12, 12)), (wide_z, (12, 12, 12))]
    # the third miss is the certification torus, below the split
    assert misses(torus_mod._rank) == 3
    assert (12, 12, 12) not in instantiated


def test_scan_verifies_each_code_once():
    # whether a code commutes does not depend on the torus, so a k(L) scan
    # verifies it once; a failed check is computed once and raised on every call
    code = get_code("cubic")
    for L in (2, 3, 4):
        count_logical(code, shape_of((L, L, L)))
    assert misses(pauli_mod._verify) == 1
    one, zero = LaurentPoly.one(1), LaurentPoly.zero(1)
    bad = CodeSpec(name="xz", css=False, sigma=GeneratorMap(1, ((one, zero), (zero, one))))
    for L in (2, 3, 2):
        with pytest.raises(ValueError, match="code is not commuting"):
            count_logical(bad, shape_of((L,)))
    assert misses(pauli_mod._verify) == 2


def test_mixed_code_ranks_its_sigma_once():
    code = get_code("cluster_toric")
    shape = shape_of((3, 3))
    count_logical(code, shape)
    logical_operator_gap(code, shape)
    # a mixed code has no certification, so this is sigma alone
    assert (misses(torus_mod._rank), misses(syzygy_mod._certify)) == (1, 0)


def test_renamed_code_reuses_the_certificate():
    code = get_code("cubic")
    data = json.loads(dumps_code(code))
    data["name"] = "cubic-reloaded"
    reloaded = loads_code(json.dumps(data))
    assert reloaded.name != code.name and reloaded.sigma_x == code.sigma_x
    shape = shape_of((4, 4, 4))
    assert count_logical(reloaded, shape).bulk_term == count_logical(code, shape).bulk_term
    assert misses(syzygy_mod._certify) == 2
    # commutation is memoized on the stabilizer map, which the name is not part of
    assert misses(pauli_mod._verify) == 1


def test_sector_kernels_rank_one_torus_matrix_once():
    # ker s and ker s-dagger are certified on one torus, where s and its
    # dagger share one rank entry
    code = get_code("cubic")
    assert torus_mod._per_cell(code) == 0
    info = torus_mod._rank.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("name, lengths", [("toric2d", (6, 6)), ("cubic", (4, 4, 4))])
@pytest.mark.parametrize("sector", ["sigma_x", "sigma_z"])
def test_map_and_dagger_share_one_rank(name, lengths, sector):
    m, shape = getattr(get_code(name), sector), shape_of(lengths)
    assert rank_on_torus(m, shape) == rank_on_torus(m.dagger(), shape)
    assert misses(torus_mod._rank) == 1


def test_noncommuting_code_raises_on_every_call():
    # the failed report is memoized, and every call raises from it again
    one = LaurentPoly.one(1)
    zero = LaurentPoly.zero(1)
    bad = CodeSpec(
        name="xz", css=False,
        sigma=GeneratorMap(1, ((one, zero), (zero, one))),
    )
    shape = shape_of((2,))
    for _ in range(2):
        with pytest.raises(ValueError, match="code is not commuting"):
            count_logical(bad, shape)
        with pytest.raises(ValueError, match="code is not commuting"):
            logical_operator_gap(bad, shape)
    assert misses(pauli_mod._verify) == 1
