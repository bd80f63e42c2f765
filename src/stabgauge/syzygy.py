"""Hypercube-local kernel generators for polynomial maps.

Kernel search is bounded-box linear algebra: every coefficient of a
candidate column supported inside the box is an unknown, every
coefficient of the composed map is an equation, and the GF(2) nullspace
gives the candidates.  Where a column sits follows one rule throughout,
`pauli.normalize_column`: the min corner of its support box goes to the
origin.  Candidates are put in that form, which keeps them and their
in-box shifts inside the box and collapses translates of one another, and
the basis is then thinned to translation-inequivalent generators.  The
same rule recognises a preimage target that is a translate of one column.

Certification on a torus deliberately distinguishes local from global
kernel elements.  Translates of box-local generators can never reach
kernel elements that only close up by wrapping around the torus (those
wrapping classes are exactly the interesting degeneracy of the models
this library targets), so the certificate checks two things instead of
bare span equality: every translate lies in the kernel, and every kernel
element supported in a window too small to wrap is spanned by the
translates.  The window is a column mask: the window-local kernel is the
nullspace of the torus matrix with every column outside the window
cleared, less the unit vectors of those cleared columns.  An undersized
search box fails the second check with a dimension deficit; the wrapping
classes are reported, not hidden.  Certification is a pure function of
the kernel basis and the torus: it returns a report and changes nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .gf2 import Gf2Basis, Gf2Matrix
from .pauli import GeneratorMap, columns_equal_up_to_translation, normalize_column
from .poly import LaurentPoly, Monomial, support_box
from .torus import instantiate, rank_on_torus, shape_of


class NotSymmetricError(ValueError):
    """Raised when an operator's Z part is not generated by the constraints."""


@dataclass
class KernelBasis:
    """Independent box-local generators of the kernel of `parent`."""

    parent: GeneratorMap
    box: tuple[int, ...]
    generators: list[tuple[LaurentPoly, ...]]

    @property
    def dim(self) -> int:
        return self.parent.dim

    def matrix(self) -> GeneratorMap:
        """Generators as the columns of a map (parent.cols x n_generators)."""
        return GeneratorMap.from_columns(self.parent.dim, self.parent.cols, self.generators)


def _box_points(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[Monomial]:
    return list(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))


def _box_system(m: GeneratorMap, points: list[Monomial], rhs=None) -> tuple[Gf2Matrix, int]:
    """GF(2) equations for m . p (= rhs), each entry of p supported on `points`.

    Unknown j * len(points) + k is the coefficient of x^points[k] in entry
    j of p.  Each map row gives one equation per monomial its products can
    reach, plus one per monomial of the matching rhs entry, so that rows
    with a zero left-hand side still carry the right-hand side.  Returns
    the system and the right-hand side as a bitmask over its rows.
    """
    n = len(points)
    eq_rows: list[int] = []
    rhs_bits = 0
    for i, row in enumerate(m.entries):
        eqs: dict[Monomial, int] = {}
        for j, p in enumerate(row):
            for t in p.terms:
                for k, e in enumerate(points):
                    u = tuple(a + b for a, b in zip(t, e))
                    eqs[u] = eqs.get(u, 0) ^ (1 << (j * n + k))
        target = rhs[i].terms if rhs is not None else frozenset()
        for u in target:
            eqs.setdefault(u, 0)
        for u in sorted(eqs):
            if u in target:
                rhs_bits |= 1 << len(eq_rows)
            eq_rows.append(eqs[u])
    return Gf2Matrix(len(eq_rows), m.cols * n, eq_rows), rhs_bits


def _unpack(v: int, points: list[Monomial], ncols: int, dim: int) -> tuple[LaurentPoly, ...]:
    """The column of polynomials whose coefficients are the bits of v."""
    n = len(points)
    return tuple(
        LaurentPoly.from_terms(dim, [points[k] for k in range(n) if (v >> (j * n + k)) & 1])
        for j in range(ncols)
    )


def bounded_kernel(m: GeneratorMap, box: tuple[int, ...] | None = None) -> KernelBasis:
    """Find translation-inequivalent kernel generators supported in a box.

    Args:
        m: the map whose kernel is generated.
        box: per-axis support extent for candidate columns; defaults to the
            support extent of m itself.

    The returned generators each satisfy m o g = 0 as an exact polynomial
    identity and none lies in the GF(2) span of box translates of the
    others.
    """
    if box is None:
        box = m.support_extent()
    try:
        box = tuple(operator.index(b) for b in box)
    except TypeError:
        raise ValueError(f"box extents must be integers: {box!r}") from None
    if len(box) != m.dim:
        raise ValueError("box dimension does not match map dimension")
    if any(b < 0 for b in box):
        raise ValueError("box extents must be nonnegative")

    dim = m.dim
    points = _box_points((0,) * dim, box)
    system, _ = _box_system(m, points)
    # normalized candidates have their min corner at 0, so the high corner
    # of their support box is their extent, and they and their in-box
    # shifts stay inside the box
    candidates = list(dict.fromkeys(
        normalize_column(_unpack(v, points, m.cols, dim)) for v in system.nullspace()
    ))

    def sort_key(col):
        n_terms = sum(len(p.terms) for p in col)
        volume = math.prod(e + 1 for e in support_box(col)[1])
        return (n_terms, volume, tuple(p.sorted_terms() for p in col))

    candidates.sort(key=sort_key)

    point_index = {e: k for k, e in enumerate(points)}

    def column_to_vec(col) -> int:
        return sum(
            1 << (j * len(points) + point_index[t]) for j, p in enumerate(col) for t in p.terms
        )

    kept: list[tuple[LaurentPoly, ...]] = []
    span = Gf2Basis()  # box translates of the kept generators
    for cand in candidates:
        if span.contains(column_to_vec(cand)):
            continue
        kept.append(cand)
        extent = support_box(cand)[1]
        for sh in itertools.product(*(range(b - e + 1) for b, e in zip(box, extent))):
            span.add(column_to_vec(tuple(p.shift(sh) for p in cand)))

    for g in kept:
        if not all(p.is_zero() for p in m.apply(g)):
            raise AssertionError("kernel generator fails the exact identity")
    return KernelBasis(parent=m, box=box, generators=kept)


def bounded_preimage(m: GeneratorMap, target) -> tuple[LaurentPoly, ...]:
    """Solve m . p = target with p supported in a box around target's support.

    A target that is a single translate of one column of m maps to that
    translate exactly, so those images stay canonical rather than
    kernel-shifted.  Otherwise the GF(2) solve zeroes all free variables,
    which keeps the result deterministic.  Raises NotSymmetricError when no
    box-local preimage exists.
    """
    dim = m.dim
    tbox = support_box(target)
    if tbox is None:
        return (LaurentPoly.zero(dim),) * m.cols
    for t in range(m.cols):
        col = m.column(t)
        if columns_equal_up_to_translation(target, col):
            shift = tuple(a - b for a, b in zip(tbox[0], support_box(col)[0]))
            out = [LaurentPoly.zero(dim)] * m.cols
            out[t] = LaurentPoly.monomial(shift)
            return tuple(out)
    # the box of m is taken to contain the origin even when m's support does not
    mlo, mhi = support_box([LaurentPoly.one(dim)] + [p for row in m.entries for p in row])
    lo = tuple(a - b for a, b in zip(tbox[0], mhi))
    hi = tuple(a - b for a, b in zip(tbox[1], mlo))
    points = _box_points(lo, hi)
    system, rhs = _box_system(m, points, target)
    x = system.solve(rhs)
    if x is None:
        raise NotSymmetricError("operator not symmetric: Z part has no local preimage")
    return _unpack(x, points, m.cols, dim)


def certification_lengths(kb: KernelBasis) -> tuple[int, ...]:
    """Torus lengths on which `certify_on_torus` separates kb's local kernel
    from the wrapping classes: the box fits twice and a non-wrapping window
    remains past the parent's support."""
    ext = kb.parent.support_extent()
    return tuple(max(3, 2 * (e + max(b, 1)) + 2) for e, b in zip(ext, kb.box))


@dataclass(frozen=True)
class CertifyReport:
    lengths: tuple[int, ...]
    kernel_dim: int
    span_dim: int
    containment: bool
    window: tuple[int, ...]
    local_kernel_dim: int
    local_spanned: bool
    missing_local: int
    passed: bool

    @property
    def wrapping_deficit(self) -> int:
        """Kernel dimension unreachable by translates; wrapping classes on a torus."""
        return self.kernel_dim - self.span_dim

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"certify on {self.lengths}: {status} "
            f"(kernel {self.kernel_dim}, translate span {self.span_dim}, "
            f"window-local kernel {self.local_kernel_dim}, "
            f"unspanned local {self.missing_local}, "
            f"wrapping classes {self.wrapping_deficit})"
        )


def certify_on_torus(kb: KernelBasis, lengths) -> CertifyReport:
    """Certify a kernel basis against the full kernel on a finite torus.

    Passes when all generator translates lie in the kernel and every kernel
    element supported in a non-wrapping window is in their span.  Kernel
    elements that wrap the torus are reported via `wrapping_deficit`.
    The window is a mask on the torus matrix's columns; `kb` is not
    modified.
    """
    lengths = tuple(lengths)
    if len(lengths) != kb.dim:
        raise ValueError("torus dimension mismatch")
    if any(l <= 2 * b for l, b in zip(lengths, kb.box)):
        raise ValueError("torus lengths must exceed twice the box extent")
    shape = shape_of(lengths)  # rejects non-integer lengths
    lengths = shape.lengths
    n = shape.n_sites
    parent_t = instantiate(kb.parent, shape)
    kernel_dim = parent_t.cols - rank_on_torus(kb.parent, shape)

    gen_map = kb.matrix()
    # rows of the dagger's instantiation are all torus translates of all generators
    span = Gf2Basis(instantiate(gen_map.dagger(), shape).data)
    # instantiation is a ring homomorphism, so this is parent_t times the translates
    containment = not any(instantiate(kb.parent.compose(gen_map), shape).data)

    pext = kb.parent.support_extent()
    window = tuple(max(l - 1 - e, 0) for l, e in zip(lengths, pext))
    # window sites of every column type; each cleared column is free with
    # its own unit vector, which the filter drops
    sites = sum(
        1 << shape.site_index(c) for c in itertools.product(*(range(w + 1) for w in window))
    )
    allowed = sum(sites << (j * n) for j in range(kb.parent.cols))
    masked = Gf2Matrix(parent_t.rows, parent_t.cols, [r & allowed for r in parent_t.data])
    local_kernel = [v for v in masked.nullspace() if v & allowed]
    missing = sum(not span.contains(v) for v in local_kernel)
    local_spanned = missing == 0
    passed = containment and local_spanned
    return CertifyReport(
        lengths=lengths,
        kernel_dim=kernel_dim,
        span_dim=len(span),
        containment=containment,
        window=window,
        local_kernel_dim=len(local_kernel),
        local_spanned=local_spanned,
        missing_local=missing,
        passed=passed,
    )
