import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_oracle import naive_nullspace, naive_rank, naive_rref, naive_solve, stabilizer_rows
from stabgauge.codebook import get_code
from stabgauge.gf2 import Gf2Basis, Gf2Matrix


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
    assert all(r.bit_length() - 1 == p for p, r in basis.rows.items())


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1)])
def test_degenerate_shapes(shape):
    m = Gf2Matrix(*shape)
    assert m.row_reduce() == ([0] * shape[0], [])
    assert m.rank() == 0
    assert m.nullspace() == [1 << j for j in range(shape[1])]
    assert m.solve(0) == 0
