import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgauge.codebook import get_code
from stabgauge.pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    columns_equal_up_to_translation,
    epsilon_of,
    normalize_column,
    render_diagram,
    symplectic_pair,
    verify_stabilizer,
)
from stabgauge.poly import LaurentPoly, parse_poly, support_box


def p(text, dim=2):
    return parse_poly(text, dim)


def is_zero_map(m: GeneratorMap) -> bool:
    return all(e.is_zero() for row in m.entries for e in row)


def identity_column(dim: int, q: int) -> PauliColumn:
    return PauliColumn.from_entries(dim, (LaurentPoly.zero(dim),) * (2 * q))


def random_poly(rng, dim):
    terms = set()
    for _ in range(rng.randint(0, 4)):
        terms.add(tuple(rng.randint(-2, 2) for _ in range(dim)))
    return LaurentPoly.from_terms(dim, terms)


def random_map(rng, dim, rows, cols):
    return GeneratorMap(
        dim,
        tuple(tuple(random_poly(rng, dim) for _ in range(cols)) for _ in range(rows)),
    )


def test_dagger_involution():
    rng = random.Random(1)
    m = random_map(rng, 2, 3, 2)
    assert m.dagger().dagger() == m


def test_dagger_of_toric_star():
    star = GeneratorMap(2, [[p("x + x*y")], [p("y + x*y")]])
    dag = star.dagger()
    assert dag.rows == 1 and dag.cols == 2
    assert dag.entries[0][0] == p("x^-1 + x^-1*y^-1")
    assert dag.entries[0][1] == p("y^-1 + x^-1*y^-1")


def test_dagger_zero():
    z = GeneratorMap.zero(3, 2, 2)
    assert z.dagger() == GeneratorMap.zero(3, 2, 2)


@pytest.mark.parametrize("rows,cols", [(2, 0), (0, 3), (0, 0)])
def test_empty_maps_keep_their_shape(rows, cols):
    m = GeneratorMap.zero(1, rows, cols)
    assert (m.dagger().rows, m.dagger().cols) == (cols, rows)
    assert m.dagger().dagger() == m
    product = m.compose(GeneratorMap.zero(1, cols, 4))
    assert (product.rows, product.cols) == (rows, 4)


def test_map_rejects_a_column_count_its_rows_contradict():
    with pytest.raises(ValueError, match="column count"):
        GeneratorMap(1, ((LaurentPoly.one(1),),), 2)


def test_single_qubit_x_z_anticommute():
    zero = LaurentPoly.zero(2)
    one = LaurentPoly.one(2)
    x = PauliColumn(2, 1, (one,), (zero,))
    z = PauliColumn(2, 1, (zero,), (one,))
    assert symplectic_pair(x, z) == one


def test_toric_generators_commute_fully():
    code = get_code("toric2d")
    cols = code.generator_columns()
    assert symplectic_pair(cols[0], cols[1]).is_zero()


def test_cubic_generators_commute_fully():
    code = get_code("cubic")
    cols = code.generator_columns()
    assert symplectic_pair(cols[0], cols[1]).is_zero()


def test_pair_antisymmetry_under_swap():
    rng = random.Random(5)
    for _ in range(20):
        a = PauliColumn(2, 2,
                        (random_poly(rng, 2), random_poly(rng, 2)),
                        (random_poly(rng, 2), random_poly(rng, 2)))
        b = PauliColumn(2, 2,
                        (random_poly(rng, 2), random_poly(rng, 2)),
                        (random_poly(rng, 2), random_poly(rng, 2)))
        assert symplectic_pair(a, b) == symplectic_pair(b, a).antipode()


def test_epsilon_annihilates_codebook_sigmas():
    for name in ("toric2d", "cubic", "ising2d", "fractal_ising"):
        sigma = get_code(name).full_sigma()
        assert is_zero_map(epsilon_of(sigma).compose(sigma))


def test_epsilon_single_x_generator():
    zero = LaurentPoly.zero(1)
    one = LaurentPoly.one(1)
    sigma = GeneratorMap(1, ((one,), (zero,)))
    assert is_zero_map(epsilon_of(sigma).compose(sigma))


def test_epsilon_rejects_odd_rows():
    with pytest.raises(ValueError):
        epsilon_of(GeneratorMap.zero(2, 3, 1))


def test_verify_stabilizer_passes_codebook():
    for name in ("toric2d", "cubic"):
        assert verify_stabilizer(get_code(name)).passed


def test_verify_catches_corruption():
    bad = CodeSpec(
        name="bad",
        css=True,
        sigma_x=get_code("toric2d").sigma_x,
        sigma_z=GeneratorMap(2, [[p("1 + x")], [p("1 + x")]]),
    )
    report = verify_stabilizer(bad)
    assert not report.passed
    t, u, poly = report.witness
    # the witness is the actual nonzero pairing polynomial
    cols = bad.generator_columns()
    assert symplectic_pair(cols[t], cols[u]) == poly
    assert not poly.is_zero()


@pytest.mark.parametrize("sigma_z", [
    GeneratorMap.zero(2, 1, 1),  # one row against two
    GeneratorMap.zero(3, 2, 1),  # 3-D against 2-D
    None,
])
def test_css_sectors_must_agree(sigma_z):
    with pytest.raises(ValueError):
        CodeSpec(name="bad", css=True, sigma_x=GeneratorMap.zero(2, 2, 1), sigma_z=sigma_z)


def test_mixed_sigma_needs_even_rows():
    with pytest.raises(ValueError):
        CodeSpec(name="bad", css=False, sigma=GeneratorMap.zero(2, 3, 1))


def test_compose_identity():
    rng = random.Random(9)
    m = random_map(rng, 2, 3, 3)
    eye = GeneratorMap.identity(2, 3)
    assert eye.compose(m) == m
    assert m.compose(eye) == m


def test_compose_char2_cancellation():
    row = GeneratorMap(2, [[p("1 + y"), p("1 + x")]])
    col = GeneratorMap(2, [[p("1 + x")], [p("1 + y")]])
    assert is_zero_map(row.compose(col))


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(10):
        a = random_map(rng, 2, 2, 3)
        b = random_map(rng, 2, 3, 2)
        c = random_map(rng, 2, 2, 2)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_compose_shape_mismatch():
    with pytest.raises(ValueError):
        GeneratorMap.zero(2, 2, 3).compose(GeneratorMap.zero(2, 2, 2))


def test_css_sector_conditions():
    for name in ("toric2d", "cubic"):
        code = get_code(name)
        assert is_zero_map(code.sigma_z.dagger().compose(code.sigma_x))
        assert is_zero_map(code.sigma_x.dagger().compose(code.sigma_z))


def test_column_translation_normalization():
    a = (p("1 + x"), p("1 + y"))
    b = (p("x*y + x^2*y"), p("x*y + x*y^2"))
    assert columns_equal_up_to_translation(a, b)
    assert not columns_equal_up_to_translation(a, (p("1 + x"), p("1 + x")))


def test_normalize_column_puts_min_corner_at_origin():
    # the least monomial y is not the min corner: the column is already normal
    col = (p("x + y"), p("x*y"))
    assert normalize_column(col) == col
    assert normalize_column(tuple(q.shift((-3, 2)) for q in col)) == col
    zero = (p("0"), p("0"))
    assert normalize_column(zero) is zero


@st.composite
def columns(draw, dim, rows):
    monos = st.tuples(*[st.integers(-2, 2)] * dim)
    return tuple(
        LaurentPoly.from_terms(dim, draw(st.lists(monos, max_size=3))) for _ in range(rows)
    )


def shifted(col, s):
    return tuple(q.shift(s) for q in col)


def equal_by_some_shift(a, b):
    """Brute force: some shift maps a to b (exponents of both lie in [-4, 4])."""
    dim = a[0].dim
    return any(shifted(a, s) == b for s in itertools.product(range(-8, 9), repeat=dim))


@given(st.data(), st.integers(1, 2), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_normalize_column_is_the_translation_normal_form(data, rows, dim):
    a = data.draw(columns(dim, rows))
    s = data.draw(st.tuples(*[st.integers(-2, 2)] * dim))
    norm = normalize_column(a)
    assert normalize_column(norm) == norm
    assert normalize_column(shifted(a, s)) == norm
    box = support_box(norm)
    if box is None:
        assert norm == a
    else:
        assert box[0] == (0,) * dim
        assert all(e >= 0 for q in norm for t in q.terms for e in t)
    # b is a translate of a, a random column, or a translate of a edited in one term
    b = data.draw(st.one_of(
        st.just(shifted(a, s)),
        columns(dim, rows),
        st.just(shifted(a, s)[:-1] + (shifted(a, s)[-1] + LaurentPoly.one(dim),)),
    ))
    assert columns_equal_up_to_translation(a, b) == equal_by_some_shift(a, b)


def test_render_two_qubit_example():
    op = PauliColumn(2, 2, (p("1 + y"), p("x*y")), (p("x"), p("0")))
    grid = render_diagram(op)
    assert grid.splitlines() == ["XI IX", "XI ZI"]


def test_render_identity():
    assert render_diagram(identity_column(2, 2)) == "II"


def test_render_one_dimensional_column():
    # no golden CLI case renders a 1-D column: one row of sites, left to right
    op = PauliColumn(1, 2, (p("x^-1 + x", 1), p("x", 1)), (p("1 + x", 1), p("0", 1)))
    assert render_diagram(op) == "XI ZI YX"
    op = PauliColumn(1, 1, (p("x^2", 1),), (p("x^2 + x^3", 1),))
    assert render_diagram(op) == "Y Z"


@pytest.mark.parametrize("a,b", [
    (PauliColumn.single_x(2, 1, 0), PauliColumn.single_x(3, 1, 0)),
    (PauliColumn.single_x(2, 1, 0), PauliColumn.single_x(2, 2, 0)),
])
def test_symplectic_pair_rejects_a_shape_mismatch(a, b):
    with pytest.raises(ValueError, match="shape mismatch in symplectic pairing"):
        symplectic_pair(a, b)


def test_render_rejects_dim4():
    with pytest.raises(ValueError):
        render_diagram(identity_column(4, 1))


def test_render_cubic_letter_multiset():
    # one XX corner, one II corner, three XI, three IX in the X generator
    code = get_code("cubic")
    x_col = PauliColumn.from_entries(3, code.full_sigma().column(0))
    letters = [w for w in render_diagram(x_col).split() if not w.startswith("z=")]
    assert sorted(letters) == sorted(["XX", "II", "XI", "XI", "XI", "IX", "IX", "IX"])
    z_col = PauliColumn.from_entries(3, code.full_sigma().column(1))
    letters = [w for w in render_diagram(z_col).split() if not w.startswith("z=")]
    assert sorted(letters) == sorted(["ZZ", "II", "ZI", "ZI", "ZI", "IZ", "IZ", "IZ"])
