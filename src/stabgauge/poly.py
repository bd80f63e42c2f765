"""Multivariate Laurent polynomials over GF(2).

A polynomial is a finite set of integer exponent vectors; every present
monomial has coefficient 1, so addition is symmetric difference.
"""

from __future__ import annotations

import operator
import re

Monomial = tuple[int, ...]

_FACTOR_RE = re.compile(r"^(x(\d+)|[xyz])(?:\^(-?\d+))?$")
_XYZ = {"x": 1, "y": 2, "z": 3}


class Record:
    """Base of the value classes: the fields are the names in `__slots__`
    (bar `__dict__`), in order; records compare equal by value within one
    class, repr as `Name(field=value, ...)` and are mutable and unhashable."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._values = operator.attrgetter(*cls._fields) if cls._fields else None

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable, hashable record: fields are set once by `__init__`."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LaurentPoly(Frozen):
    """Laurent polynomial over GF(2) in `dim` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: frozenset[Monomial] = frozenset()) -> None:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        for t in terms:
            if len(t) != dim:
                raise ValueError(f"exponent vector {t} does not match dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.terms) == (other.dim, other.terms)

    def __hash__(self) -> int:
        return hash((self.dim, self.terms))

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
