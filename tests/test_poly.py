import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgauge.poly import LaurentPoly, format_poly, parse_poly, support_box


def p2(text):
    return parse_poly(text, 2)


def test_add_cancels_shared_term():
    assert p2("1 + x") + p2("1 + y") == p2("x + y")


def test_add_self_is_zero():
    p = p2("1 + x + x*y")
    assert (p + p).is_zero()


def test_add_zero_identity():
    p = p2("x + y^2")
    assert p + LaurentPoly.zero(2) == p


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        p2("1") + parse_poly("1", 3)


def test_mul_expands():
    assert p2("1 + y") * p2("1 + x") == p2("1 + x + y + x*y")


def test_mul_one_identity():
    p = p2("x^-1 + y + x*y^3")
    assert p * LaurentPoly.one(2) == p


def test_mul_antipode_recovers_bond_term():
    # antipode(x + x*y) * x*y = 1 + y
    lhs = p2("x + x*y").antipode() * p2("x*y")
    assert lhs == p2("1 + y")


def test_antipode_negates_exponents():
    p = LaurentPoly.monomial((1, 2))
    assert p.antipode() == LaurentPoly.monomial((-1, -2))


def test_antipode_involution_on_example():
    p = parse_poly("1 + x + y + x*y*z", 3)
    assert p.antipode().antipode() == p
    assert p.antipode() == parse_poly("1 + x^-1 + y^-1 + x^-1*y^-1*z^-1", 3)


def test_support_box():
    assert support_box([p2("1 + x + y + x*y")]) == ((0, 0), (1, 1))
    assert support_box([parse_poly("x^-1 + z", 3)]) == ((-1, 0, 0), (0, 0, 1))
    assert support_box([p2("x^2*y")]) == ((2, 1), (2, 1))


def test_support_box_zero_errors():
    assert support_box([LaurentPoly.zero(2)]) is None


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("1 + q", 2)
    with pytest.raises(ValueError):
        parse_poly("x3", 2)


def test_xyz_aliases_match_indexed_names():
    assert parse_poly("x*y^-1*z^2", 3) == parse_poly("x1*x2^-1*x3^2", 3)


monomials = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
polys = st.frozensets(monomials, max_size=6).map(lambda ts: LaurentPoly(2, ts))


@given(polys, polys, polys)
@settings(max_examples=120)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polys, polys)
def test_antipode_is_ring_hom(a, b):
    assert (a * b).antipode() == a.antipode() * b.antipode()
    assert (a + b).antipode() == a.antipode() + b.antipode()


@given(polys)
def test_serialize_parse_roundtrip(a):
    assert parse_poly(format_poly(a), 2) == a


def test_canonical_order_is_lexicographic():
    p = LaurentPoly.from_terms(2, [(1, 0), (-1, 1), (0, 0)])
    assert format_poly(p) == "x1^-1*x2 + 1 + x1"
