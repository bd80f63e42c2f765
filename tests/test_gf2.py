import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_oracle import (
    naive_nullspace,
    naive_rank,
    naive_rref,
    naive_solve,
    naive_torus_column,
    stabilizer_rows,
)
from stabgauge.codebook import get_code
from stabgauge.gf2 import Gf2Basis, Gf2Matrix
from stabgauge.pauli import GeneratorMap
from stabgauge.poly import LaurentPoly
from stabgauge.torus import rank_on_torus, shape_of


def random_matrix(rng, rows, cols, density=0.4):
    data = []
    for _ in range(rows):
        r = 0
        for j in range(cols):
            if rng.random() < density:
                r |= 1 << j
        data.append(r)
    return Gf2Matrix(rows, cols, data)


def identity(n: int) -> Gf2Matrix:
    return Gf2Matrix(n, n, [1 << i for i in range(n)])


def to_array(m: Gf2Matrix) -> np.ndarray:
    bits = [[(r >> j) & 1 for j in range(m.cols)] for r in m.data]
    return np.array(bits, dtype=np.uint8).reshape(m.rows, m.cols)


def from_array(arr) -> Gf2Matrix:
    arr = np.asarray(arr, dtype=np.uint8)
    return Gf2Matrix(arr.shape[0], arr.shape[1], [pack(r) for r in arr])


def pack(bits) -> int:
    return sum(1 << j for j, v in enumerate(bits) if v)


def assert_pivot_table(basis: Gf2Basis, inserted) -> None:
    """rows[b] is 0 or a row whose highest bit is b - 1, rows[0] is 0, and
    the table is one longer than the widest vector inserted."""
    rows = basis.rows
    assert rows[0] == 0
    assert all(r == 0 or r.bit_length() == b for b, r in enumerate(rows))
    assert len(rows) == 1 + max((v.bit_length() for v in inserted), default=0)
    assert len(basis) == sum(1 for r in rows if r)


def test_rank_identity():
    assert identity(17).rank() == 17


def test_rank_zero():
    assert Gf2Matrix(5, 9).rank() == 0


def test_rank_toric_2x2_vs_oracle():
    # 8 generator translates as symplectic bit rows: two global redundancies
    code = get_code("toric2d")
    rows = stabilizer_rows(code, (2, 2))
    assert naive_rank(rows) == 6
    packed = from_array(rows)
    assert packed.rank() == 6


def test_nullspace_identity_empty():
    assert identity(6).nullspace() == []


def test_nullspace_parity_row():
    m = Gf2Matrix(1, 2, [0b11])
    assert m.nullspace() == [0b11]


@pytest.mark.parametrize("seed", range(5))
def test_nullspace_consistency(seed):
    rng = random.Random(seed)
    m = random_matrix(rng, 14, 20)
    basis = m.nullspace()
    assert len(basis) == m.cols - m.rank()
    for v in basis:
        assert m.mul_vec(v) == 0
    stacked = Gf2Matrix(len(basis), m.cols, list(basis))
    assert stacked.rank() == len(basis)


def test_solve_identity():
    m = identity(8)
    assert m.solve(0b10110101) == 0b10110101


def test_solve_inconsistent():
    m = Gf2Matrix(2, 2, [0b11, 0])
    assert m.solve(0b10) is None


def test_solve_free_variables_zero():
    m = Gf2Matrix(1, 2, [0b11])
    assert m.solve(0b1) == 0b01


@pytest.mark.parametrize("seed", range(5))
def test_solve_random_consistent(seed):
    rng = random.Random(100 + seed)
    m = random_matrix(rng, 12, 18)
    x_true = rng.getrandbits(18)
    b = m.mul_vec(x_true)
    x = m.solve(b)
    assert x is not None
    assert m.mul_vec(x) == b


@given(st.integers(0, 2**40 - 1), st.integers(1, 6), st.integers(1, 8))
@settings(max_examples=60)
def test_rank_equals_transpose_rank(bits, rows, cols):
    data = [(bits >> (i * cols)) & ((1 << cols) - 1) for i in range(rows)]
    m = Gf2Matrix(rows, cols, data)
    assert m.rank() == from_array(to_array(m).T).rank()


def test_rank_transpose_large():
    rng = random.Random(42)
    m = random_matrix(rng, 512, 512, density=0.3)
    assert m.rank() == from_array(to_array(m).T).rank()


def test_elimination_deterministic():
    rng = random.Random(7)
    m = random_matrix(rng, 30, 30)
    first = (m.row_reduce(), m.nullspace(), m.rank())
    second = (m.row_reduce(), m.nullspace(), m.rank())
    assert first == second


@st.composite
def gf2_matrices(draw, max_rows=9, max_cols=11):
    """Matrices of any shape, zero rows or columns included, with some rows
    duplicated or replaced by the XOR of two others."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    if rows:
        index = st.integers(0, rows - 1)
        for target, a, b in draw(st.lists(st.tuples(index, index, index), max_size=rows)):
            data[target] = data[a] ^ data[b] if a != b else data[a]
    return Gf2Matrix(rows, cols, data)


@given(gf2_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_oracle(m):
    arr = to_array(m)
    ref, ref_pivots = naive_rref(arr)
    reduced, pivots = m.row_reduce()
    assert pivots == ref_pivots
    assert reduced == [pack(r) for r in ref]
    assert m.rank() == naive_rank(arr) == len(pivots)
    assert m.nullspace() == [pack(v) for v in naive_nullspace(arr)]


@given(gf2_matrices(), st.integers(0, 2**11 - 1), st.booleans())
@settings(max_examples=300, deadline=None)
def test_solve_matches_oracle(m, bits, consistent):
    b = m.mul_vec(bits) if consistent else bits & ((1 << m.rows) - 1)
    ref = naive_solve(to_array(m), [(b >> i) & 1 for i in range(m.rows)])
    x = m.solve(b)
    assert x == (None if ref is None else pack(ref))
    if consistent:
        assert x is not None and m.mul_vec(x) == b


def last_nullspace_solve(m: Gf2Matrix, b: int) -> int | None:
    """The nullspace formula `solve` once used: the last nullspace vector of
    [A | b] is x plus b's bit when b's column is free, and the system is
    inconsistent otherwise."""
    aug = Gf2Matrix(m.rows, m.cols + 1,
                    [r | ((b >> i) & 1) << m.cols for i, r in enumerate(m.data)])
    last = (aug.nullspace() or [0])[-1]
    return last ^ (1 << m.cols) if last >> m.cols else None


# no rows, no columns with b = 0 and with b != 0 (inconsistent), and 1 x 1
@given(gf2_matrices(), st.integers(0, 2**11 - 1), st.booleans())
@example(Gf2Matrix(0, 4), 0, True)
@example(Gf2Matrix(3, 0), 0, True)
@example(Gf2Matrix(3, 0), 0b101, False)
@example(Gf2Matrix(1, 1, [0]), 1, False)
@settings(max_examples=300, deadline=None)
def test_solve_matches_the_last_nullspace_vector(m, bits, consistent):
    b = m.mul_vec(bits) if consistent else bits & ((1 << m.rows) - 1)
    assert m.solve(b) == last_nullspace_solve(m, b)


@given(gf2_matrices(), st.lists(st.integers(0, 2**11 - 1), max_size=6))
@settings(max_examples=300, deadline=None)
def test_basis_add_and_contains_match_oracle(m, probes):
    def span_rank(vectors):
        return naive_rank(to_array(Gf2Matrix(len(vectors), m.cols, vectors)))

    basis = Gf2Basis()
    kept: list[int] = []
    for v in m.data:
        grows = span_rank(kept + [v]) > len(kept)
        assert basis.contains(v) is not grows
        assert basis.add(v) is grows
        if grows:
            kept.append(v)
        assert len(basis) == len(kept)
    for p in list(m.data) + [p & ((1 << m.cols) - 1) for p in probes]:
        assert basis.contains(p) is (span_rank(kept + [p]) == len(kept))
    assert_pivot_table(basis, m.data)


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1)])
def test_degenerate_shapes(shape):
    m = Gf2Matrix(*shape)
    assert m.row_reduce() == ([0] * shape[0], [])
    assert m.rank() == 0
    assert m.nullspace() == [1 << j for j in range(shape[1])]
    assert m.solve(0) == 0


@given(st.lists(st.integers(0, 40).flatmap(lambda w: st.integers(0, (1 << w) - 1)), max_size=14),
       st.lists(st.integers(0, 2**48 - 1), max_size=6))
@settings(max_examples=300, deadline=None)
def test_basis_of_mixed_widths_matches_oracle(vectors, probes):
    """Vectors of any width, inserted in any order: a wider vector grows the
    table, and a probe may be wider than every stored row."""
    width = max((v.bit_length() for v in vectors + probes), default=0)

    def span_rank(vs):
        return naive_rank(to_array(Gf2Matrix(len(vs), width, list(vs))))

    built = Gf2Basis(vectors)
    grown = Gf2Basis()
    for i, v in enumerate(vectors):
        assert grown.add(v) is (span_rank(vectors[:i + 1]) > span_rank(vectors[:i]))
        assert_pivot_table(grown, vectors[:i + 1])
    # inserting one by one stores what inserting all at once does
    assert built.rows == grown.rows
    assert len(built) == span_rank(vectors)
    for p in probes + vectors + [0]:
        rest = built.reduce(p)
        in_span = span_rank(vectors + [p]) == span_rank(vectors)
        assert built.contains(p) is in_span and (rest == 0) is in_span
        # the rest is p plus a vector of the span, and leads with no pivot
        assert span_rank(vectors + [p ^ rest]) == span_rank(vectors)
        assert rest.bit_length() >= len(built.rows) or built.rows[rest.bit_length()] == 0


@given(st.lists(st.integers(0, 2**20 - 1), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_vector_wider_than_the_table_reduces_to_itself(vectors):
    basis = Gf2Basis(vectors)
    wide = (1 << len(basis.rows)) | vectors[0]
    assert basis.reduce(wide) == wide and not basis.contains(wide)
    assert basis.reduce(0) == 0 and basis.contains(0)
    rows = list(basis.rows)
    assert basis.add(0) is False and basis.rows == rows
    assert basis.add(wide) is True
    assert len(basis.rows) == wide.bit_length() + 1 and basis.rows[-1] == wide


def test_empty_basis():
    basis = Gf2Basis()
    assert (len(basis), basis.rows, basis.rref()) == (0, [0], [])
    assert basis.reduce(0b101) == 0b101 and basis.contains(0)
    assert Gf2Basis([0, 0]).rows == [0]


@given(gf2_matrices(max_rows=10, max_cols=12))
@settings(max_examples=300, deadline=None)
def test_rref_is_the_highest_bit_reduced_form(m):
    """rref returns the rows by ascending pivot, the highest bit of each:
    the first-column reduced form of the bit-reversed matrix, reversed."""
    ref, pivots = naive_rref(to_array(m)[:, ::-1])
    expected = [pack(row[::-1]) for row in ref[:len(pivots)]][::-1]
    basis = Gf2Basis(m.data)
    assert basis.rref() == expected
    assert [r.bit_length() - 1 for r in expected] == sorted(m.cols - 1 - c for c in pivots)
    # back-substitution rewrites the table in place
    assert [r for r in basis.rows if r] == expected


@st.composite
def small_maps(draw):
    """Maps of 1-3 rows and columns, tall or wide, with exponents in [-3, 3]
    on tori of 1-3 axes of lengths 2-5, odd ones included."""
    dim = draw(st.integers(1, 3))
    lengths = tuple(draw(st.lists(st.integers(2, 5), min_size=dim, max_size=dim)))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * dim)
    entries = [[LaurentPoly.from_terms(dim, draw(st.lists(exps, max_size=3))) for _ in range(cols)]
               for _ in range(rows)]
    return GeneratorMap(dim, entries), shape_of(lengths)


def naive_kernel_dim(m: GeneratorMap, shape) -> int:
    """Kernel dimension of the instantiated map, with its columns placed
    term by term: column t * N + s is column t of m translated to site s."""
    placed = [naive_torus_column([p.shift(site) for p in m.column(t)], shape)
              for t in range(m.cols) for site in shape.sites()]
    n = m.rows * shape.n_sites
    columns = np.array([[(c >> i) & 1 for i in range(n)] for c in placed], dtype=np.uint8)
    return len(naive_nullspace(columns.reshape(len(placed), n).T))


@given(small_maps())
@settings(max_examples=150, deadline=None)
def test_rank_on_torus_matches_oracle_on_random_maps(case):
    m, shape = case
    for side in (m, m.dagger()):
        kernel_dim = side.cols * shape.n_sites - rank_on_torus(side, shape)
        assert kernel_dim == naive_kernel_dim(side, shape)


@pytest.mark.parametrize(
    "name", ["cubic", "toric2d", "fractal_ising", "cluster_toric", "cluster_cubic"])
def test_rank_on_torus_matches_oracle_on_codebook_maps(name):
    code = get_code(name)
    maps = (code.sigma_x, code.sigma_z) if code.css else (code.sigma,)
    for lengths in {2: [(3, 5), (5, 6)], 3: [(3, 5, 6)]}[code.dim]:
        shape = shape_of(lengths)
        for m in maps:
            for side in (m, m.dagger()):
                expected = naive_kernel_dim(side, shape)
                assert side.cols * shape.n_sites - rank_on_torus(side, shape) == expected
