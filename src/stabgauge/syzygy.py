"""Hypercube-local kernel generators and preimages of polynomial maps.

Every GF(2) system here is `torus.instantiate` of the map with the
columns outside a box [0, box] cleared by one helper, `_box_columns`.
Column t * N + s is the coefficient of x^s in entry t of the unknown
column, so on a torus where no product wraps the masked matrix is the
system of the map on columns supported in the box.  Kernel search solves
it on the smallest such torus, a preimage after moving the low corner of
its search box to the origin; `torus.place_column` places one column and
`torus.read_column` reads solutions back.  Where a column sits follows
one rule, `pauli.normalize_column`: the min corner of its support box
goes to the origin.  Candidates are put in that form, which keeps them
and their in-box shifts inside the box, where a shift moves every bit by
its site index, and collapses translates of one another; the basis is
then thinned to translation-inequivalent generators.  The same rule
recognises a preimage target that is a translate of one column.

Certification on a torus deliberately distinguishes local from global
kernel elements.  Translates of box-local generators can never reach
kernel elements that only close up by wrapping around the torus (those
wrapping classes are exactly the interesting degeneracy of the models
this library targets), so the certificate checks two things instead of
bare span equality: every translate lies in the kernel, and every kernel
element supported in a window too small to wrap is spanned by the
translates.  The window comes from the same helper: the window-local
kernel is the nullspace of the masked torus matrix, less the unit
vectors of the cleared columns.  An undersized search box fails the
second check with a dimension deficit; the wrapping classes are
reported, not hidden.  Certification is a pure function of the kernel
basis and the torus: it returns a report and changes nothing.  So the
kernel search and the certificate are memoized by value once their
arguments are checked (`_bounded_kernel`, `_certify`): equal arguments,
say a list-built box and its tuple, share one immutable result.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .gf2 import Gf2Basis, Gf2Matrix
from .pauli import GeneratorMap, columns_equal_up_to_translation, normalize_column
from .poly import LaurentPoly, support_box
from .torus import TorusShape, instantiate, place_column, rank_on_torus, read_column, shape_of


class NotSymmetricError(ValueError):
    """Raised when an operator's Z part is not generated by the constraints."""


class KernelBasis(namedtuple("KernelBasis", ("parent", "box", "generators"))):
    """Independent box-local generators of the kernel of `parent`.

    The box and each generator column are stored as tuples, and so is the
    list of generators, so a basis hashes and equals one built from lists.
    """

    __slots__ = ()

    def __new__(cls, parent: GeneratorMap, box, generators):
        return super().__new__(cls, parent, tuple(box), tuple(map(tuple, generators)))

    @property
    def dim(self) -> int:
        return self.parent.dim

    def matrix(self) -> GeneratorMap:
        """Generators as the columns of a map (parent.cols x n_generators)."""
        return GeneratorMap.from_columns(self.parent.dim, self.parent.cols, self.generators)


def _box_columns(m: GeneratorMap, shape: TorusShape, box: tuple[int, ...]):
    """`instantiate(m, shape)` with every column outside the box [0, box]
    cleared, and the mask of the kept columns.  Where nothing wraps, column
    t * N + s is the coefficient of x^s in entry t of a column p supported
    in the box, so this is the system of m . p; callers drop the unit
    vectors of the cleared columns by the mask."""
    sites = LaurentPoly(m.dim, frozenset(itertools.product(*(range(b + 1) for b in box))))
    mask = place_column((sites,) * m.cols, shape)
    mat = instantiate(m, shape)
    return Gf2Matrix(mat.rows, mat.cols, [r & mask for r in mat.data]), mask


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
    return _bounded_kernel(m, box)


@functools.lru_cache(maxsize=64)
def _bounded_kernel(m: GeneratorMap, box: tuple[int, ...]) -> KernelBasis:
    # the smallest torus on which m times a column in the box does not wrap
    shape = shape_of(max(2, b + e + 1) for b, e in zip(box, m.support_extent()))
    system, mask = _box_columns(m, shape, box)
    # normalized candidates have their min corner at 0, so the high corner
    # of their support box is their extent, and they and their in-box
    # shifts stay inside the box
    candidates = list(dict.fromkeys(
        normalize_column(read_column(v, shape, m.cols)) for v in system.nullspace() if v & mask
    ))

    def sort_key(col):
        n_terms = sum(len(p.terms) for p in col)
        volume = math.prod(e + 1 for e in support_box(col)[1])
        return (n_terms, volume, tuple(p.sorted_terms() for p in col))

    candidates.sort(key=sort_key)

    kept: list[tuple[LaurentPoly, ...]] = []
    span = Gf2Basis()  # box translates of the kept generators
    for cand in candidates:
        bits = place_column(cand, shape)
        if span.contains(bits):
            continue
        kept.append(cand)
        extent = support_box(cand)[1]
        for sh in itertools.product(*(range(b - e + 1) for b, e in zip(box, extent))):
            span.add(bits << shape.site_index(sh))

    for g in kept:
        if not all(p.is_zero() for p in m.apply(g)):
            raise AssertionError("kernel generator fails the exact identity")
    return KernelBasis(parent=m, box=box, generators=kept)


def bounded_preimage(m: GeneratorMap, target) -> tuple[LaurentPoly, ...]:
    """Solve m . p = target with p supported in a box around target's support.

    A target that is a single translate of one column of m maps to that
    translate exactly, so those images stay canonical rather than
    kernel-shifted.  Otherwise the GF(2) solve zeroes all free variables,
    which keeps the result deterministic.  Raises ValueError when target
    does not have one entry per row of m, and NotSymmetricError when no
    box-local preimage exists.
    """
    if len(target) != m.rows:
        raise ValueError(f"target has {len(target)} entries for a map with {m.rows} rows")
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
    box = tuple(h - l - a for h, l, a in zip(tbox[1], mlo, lo))
    # solve for x^-lo p in [0, box] against x^-lo target, neither of which
    # wraps on this torus
    shape = shape_of(max(2, b + h - l + 1) for b, l, h in zip(box, mlo, mhi))
    system, _ = _box_columns(m, shape, box)
    x = system.solve(place_column([p.shift(tuple(-a for a in lo)) for p in target], shape))
    if x is None:
        raise NotSymmetricError("operator not symmetric: Z part has no local preimage")
    return tuple(p.shift(lo) for p in read_column(x, shape, m.cols))


def certification_lengths(kb: KernelBasis) -> tuple[int, ...]:
    """Torus lengths on which `certify_on_torus` separates kb's local kernel
    from the wrapping classes: the box fits twice and a non-wrapping window
    remains past the parent's support."""
    ext = kb.parent.support_extent()
    return tuple(max(3, 2 * (e + max(b, 1)) + 2) for e, b in zip(ext, kb.box))


class CertifyReport(namedtuple("CertifyReport", (
        "lengths", "kernel_dim", "span_dim", "containment", "window", "local_kernel_dim",
        "local_spanned", "missing_local", "passed"))):
    __slots__ = ()

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
    The window is masked by `_box_columns`; `kb` is not modified.
    """
    shape = shape_of(lengths)  # rejects non-integer lengths
    if shape.dim != kb.dim:
        raise ValueError("torus dimension mismatch")
    if any(l <= 2 * b for l, b in zip(shape.lengths, kb.box)):
        raise ValueError("torus lengths must exceed twice the box extent")
    return _certify(kb, shape)


@functools.lru_cache(maxsize=64)
def _certify(kb: KernelBasis, shape: TorusShape) -> CertifyReport:
    lengths = shape.lengths
    kernel_dim = kb.parent.cols * shape.n_sites - rank_on_torus(kb.parent, shape)

    gen_map = kb.matrix()
    # rows of the dagger's instantiation are all torus translates of all generators
    span = Gf2Basis(instantiate(gen_map.dagger(), shape).data)
    # instantiation is a ring homomorphism, so this is the parent times the translates
    containment = not any(instantiate(kb.parent.compose(gen_map), shape).data)

    window = tuple(max(l - 1 - e, 0) for l, e in zip(lengths, kb.parent.support_extent()))
    masked, allowed = _box_columns(kb.parent, shape, window)
    local_kernel = [v for v in masked.nullspace() if v & allowed]
    missing = sum(not span.contains(v) for v in local_kernel)
    return CertifyReport(
        lengths=lengths,
        kernel_dim=kernel_dim,
        span_dim=len(span),
        containment=containment,
        window=window,
        local_kernel_dim=len(local_kernel),
        local_spanned=missing == 0,
        missing_local=missing,
        passed=containment and missing == 0,
    )
