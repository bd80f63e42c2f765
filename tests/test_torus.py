import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_oracle import naive_logical_count, naive_torus_column, stabilizer_rows
from stabgauge.codebook import get_code
from stabgauge.gf2 import Gf2Matrix
from stabgauge.pauli import CodeSpec, GeneratorMap, epsilon_of, verify_stabilizer
from stabgauge.poly import LaurentPoly
from stabgauge.torus import count_logical, instantiate, logical_operator_gap, shape_of


def test_identity_map_instantiates_to_identity():
    eye = GeneratorMap.identity(1, 1)
    mat = instantiate(eye, shape_of((5,)))
    assert mat == Gf2Matrix.identity(5)


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
        prod = instantiate(epsilon_of(sigma), shape).mul(instantiate(sigma, shape))
        assert all(r == 0 for r in prod.data), name


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
        name="xchain", dim=1, q_per_site=1, css=True,
        sigma_x=GeneratorMap(1, ((one,),)), sigma_z=None,
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


def test_non_css_bulk_unavailable():
    report = count_logical(get_code("cluster_toric"), shape_of((2, 2)))
    assert report.bulk_term is None and report.c_constant is None
    assert report.k_encoded == report.n_qubits - report.stab_rank


def test_instantiation_deterministic():
    code = get_code("cubic")
    shape = shape_of((2, 2, 2))
    assert instantiate(code.full_sigma(), shape) == instantiate(code.full_sigma(), shape)


def test_rejects_noncommuting_code():
    one = LaurentPoly.one(1)
    zero = LaurentPoly.zero(1)
    bad = CodeSpec(
        name="xz", dim=1, q_per_site=1, css=False,
        sigma=GeneratorMap(1, ((one, zero), (zero, one))),
    )
    assert not verify_stabilizer(bad).passed
    with pytest.raises(ValueError):
        count_logical(bad, shape_of((2,)))


def test_instantiate_matches_oracle_rows():
    # same matrix content as the independent enumeration, up to transpose
    code = get_code("toric2d")
    lengths = (3, 2)
    rows = stabilizer_rows(code, lengths)
    mat = instantiate(code.full_sigma(), shape_of(lengths))
    got = mat.transpose().to_lists()
    assert sorted(map(tuple, got)) == sorted(map(tuple, rows.tolist()))


@st.composite
def maps_on_tori(draw):
    """Small maps with exponents in [-5, 5] on tori of lengths 2-3, so terms
    wrap from both sides and often fold onto one site; some columns repeat
    a term shifted by a whole period."""
    dim = draw(st.integers(1, 2))
    lengths = tuple(draw(st.lists(st.integers(2, 3), min_size=dim, max_size=dim)))
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
    return GeneratorMap.from_rows(dim, entries), shape_of(lengths)


# x^3 and x land on one site of a length-2 circle and cancel
@given(maps_on_tori())
@example((GeneratorMap.from_rows(1, [[LaurentPoly.from_terms(1, [(3,), (1,)])]]), shape_of((2,))))
@settings(max_examples=200, deadline=None)
def test_instantiate_columns_match_term_placement(case):
    m, shape = case
    cols = instantiate(m, shape).transpose().data
    n = shape.n_sites
    for t in range(m.cols):
        for s, site in enumerate(shape.sites()):
            shifted = [p.shift(site) for p in m.column(t)]
            assert cols[t * n + s] == naive_torus_column(shifted, shape)

