"""Multivariate Laurent polynomials over GF(2).

A polynomial is a finite set of integer exponent vectors; every present
monomial has coefficient 1, so addition is symmetric difference.

`LaurentPoly`, like every value class of the library, subclasses a
`collections.namedtuple` of its fields, so values have tuple semantics:
they are immutable, compare and hash by their fields (a value also equals
the plain tuple of its fields) and repr as `Name(field=value, ...)`, bar
a polynomial, which reprs through its text form.  `len`, iteration and
ordering (`<`) stay those of the tuple of fields.  Tuple `+` and `*` do
not: a polynomial adds and multiplies as a polynomial, and `GeneratorMap`
and `PauliColumn` raise TypeError on both.  Classes that check their
input do so in `__new__`; `_make` and `_replace` would skip those checks,
so the library never calls them.
"""

from __future__ import annotations

import re
from collections import namedtuple

Monomial = tuple[int, ...]

_FACTOR_RE = re.compile(r"^(x(\d+)|[xyz])(?:\^(-?\d+))?$")
_XYZ = {"x": 1, "y": 2, "z": 3}


class LaurentPoly(namedtuple("LaurentPoly", ("dim", "terms"))):
    """Laurent polynomial over GF(2) in `dim` variables.

    `terms` is read as a set of exponent vectors (a repeat counts once);
    `from_terms` cancels repeats mod 2 instead.
    """

    __slots__ = ()

    def __new__(cls, dim: int, terms: frozenset[Monomial] = frozenset()) -> LaurentPoly:
        terms = frozenset(terms)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        for t in terms:
            if len(t) != dim:
                raise ValueError(f"exponent vector {t} does not match dim {dim}")
        return super().__new__(cls, dim, terms)

    @classmethod
    def zero(cls, dim: int) -> LaurentPoly:
        return cls(dim, frozenset())

    @classmethod
    def one(cls, dim: int) -> LaurentPoly:
        return cls(dim, frozenset({(0,) * dim}))

    @classmethod
    def monomial(cls, exponents: tuple[int, ...] | list[int]) -> LaurentPoly:
        t = tuple(int(e) for e in exponents)
        return cls(len(t), frozenset({t}))

    @classmethod
    def from_terms(cls, dim: int, terms) -> LaurentPoly:
        """Build from an iterable of exponent vectors, cancelling duplicates mod 2."""
        acc: set[Monomial] = set()
        for t in terms:
            acc.symmetric_difference_update({tuple(int(e) for e in t)})
        return cls(dim, frozenset(acc))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return LaurentPoly(self.dim, self.terms ^ other.terms)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        acc: set[Monomial] = set()
        for a in self.terms:
            for b in other.terms:
                m = tuple(x + y for x, y in zip(a, b))
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return LaurentPoly(self.dim, frozenset(acc))

    def __rmul__(self, other):
        # else `3 * p` would answer with tuple repetition
        return NotImplemented

    def antipode(self) -> LaurentPoly:
        """Negate every exponent vector (spatial inversion); an involution."""
        return LaurentPoly(self.dim, frozenset(tuple(-e for e in t) for t in self.terms))

    def shift(self, exponents: tuple[int, ...]) -> LaurentPoly:
        """Multiply by the monomial with the given exponent vector."""
        if len(exponents) != self.dim:
            raise ValueError("shift vector has wrong length")
        return LaurentPoly(
            self.dim,
            frozenset(tuple(a + b for a, b in zip(t, exponents)) for t in self.terms),
        )

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.dim}, {format_poly(self)!r})"


def support_box(polys) -> tuple[Monomial, Monomial] | None:
    """Componentwise (min, max) over the monomials of several polynomials.

    Returns None when none of them has a term.
    """
    monos = [t for p in polys for t in p.terms]
    if not monos:
        return None
    return tuple(map(min, zip(*monos))), tuple(map(max, zip(*monos)))


def _format_monomial(t: Monomial) -> str:
    if all(e == 0 for e in t):
        return "1"
    parts = []
    for i, e in enumerate(t):
        if e == 0:
            continue
        name = f"x{i + 1}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: monomials sorted lexicographically, joined by ' + '."""
    if not p.terms:
        return "0"
    return " + ".join(_format_monomial(t) for t in p.sorted_terms())


def parse_poly(text: str, dim: int) -> LaurentPoly:
    """Parse the canonical text form.

    Accepts `x1, x2, ...` names and, for dim <= 3, the aliases x, y, z.
    """
    text = text.strip()
    if text in ("0", ""):
        return LaurentPoly.zero(dim)
    terms: set[Monomial] = set()
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty term")
        exps = [0] * dim
        if chunk != "1":
            for factor in chunk.split("*"):
                factor = factor.strip()
                if factor == "1":
                    continue
                m = _FACTOR_RE.match(factor)
                if not m:
                    raise ValueError(f"cannot parse monomial factor {factor!r}")
                if m.group(2) is not None:
                    idx = int(m.group(2))
                else:
                    idx = _XYZ[m.group(1)]
                    if dim > 3:
                        raise ValueError("x/y/z aliases are only valid for dim <= 3")
                if not 1 <= idx <= dim:
                    raise ValueError(f"variable index {idx} out of range for dim {dim}")
                exps[idx - 1] += int(m.group(3)) if m.group(3) else 1
        t = tuple(exps)
        if t in terms:
            terms.remove(t)
        else:
            terms.add(t)
    return LaurentPoly(dim, frozenset(terms))
