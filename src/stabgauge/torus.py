"""Finite-torus instantiation of polynomial maps and encoded-qubit counting.

Bit layout on a torus of N sites, used by every module: `_place` is the
only code that sends polynomial terms to bits, `place_column` its
whole-torus case, and `read_column` the one reader back.  The term x^e in
entry t of a column is bit `t * N + site_index(e)`, sites in row-major
order (`TorusShape.sites`; `TorusShape.site` inverts `site_index`), and
terms that fold onto one site cancel mod 2, as in R/(x^L - 1).  Row r of
a map at site s is row `r * N + s` of `instantiate`, which places each
row at site 0 through the antipode and translates it by s inside every
N-bit column block.  Row t * N + s of `instantiate(m.dagger(), shape)`,
the transpose, is column t placed after a shift by s, so no torus matrix
is ever transposed.  To get one translate, place it; to get all of them,
instantiate the dagger.

Counting reads four pure primitives that are memoized by value where they
are defined (`verify_stabilizer`, `rank_on_torus`, `bounded_kernel` and
`certify_on_torus`), so a k(L) scan verifies a code and certifies its
sector kernels once, and ranks each sector once per torus.

A rank on a torus of at least `SPLIT_SITES` sites never builds the torus
matrix.  Over GF(2), x^L + 1 is the product of the pairwise coprime
factors Phi_d(x^(2^p)), for L = 2^p * m with m odd and d | m, so by the
Chinese remainder theorem the torus ring is a product of blocks, one per
choice of factor g on each axis with prod(deg g) sites, and the rank is
the sum of the block ranks (`_block_rank`).  `_block_rows` builds every
block's rows through `_place`; `instantiate` is its one-block case.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple

from .gf2 import Gf2Basis, Gf2Matrix
from .pauli import CodeSpec, GeneratorMap, verify_stabilizer
from .poly import LaurentPoly


class TorusShape(namedtuple("TorusShape", ("lengths",))):
    """Periodic lattice with lengths (L_1, ..., L_d), all >= 2."""

    __slots__ = ()

    def __new__(cls, lengths: tuple[int, ...]) -> TorusShape:
        try:
            lengths = tuple(operator.index(l) for l in lengths)
        except TypeError:
            raise ValueError(f"torus lengths must be integers: {lengths!r}") from None
        if any(l < 2 for l in lengths):
            raise ValueError("all torus lengths must be >= 2")
        return super().__new__(cls, lengths)

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def n_sites(self) -> int:
        return math.prod(self.lengths)

    def site_index(self, coords: tuple[int, ...]) -> int:
        """Row-major index of a site, coordinates reduced mod the lengths."""
        idx = 0
        for c, l in zip(coords, self.lengths):
            idx = idx * l + (c % l)
        return idx

    def site(self, index: int) -> tuple[int, ...]:
        """Coordinates in [0, L) of the site with a row-major index; the
        inverse of `site_index` on reduced coordinates."""
        coords = []
        for l in reversed(self.lengths):
            index, c = divmod(index, l)
            coords.append(c)
        return tuple(reversed(coords))

    def sites(self):
        """All sites in row-major order."""
        return itertools.product(*map(range, self.lengths))


def shape_of(lengths) -> TorusShape:
    return TorusShape(tuple(lengths))


def instantiate(m: GeneratorMap, shape: TorusShape) -> Gf2Matrix:
    """Instantiate a polynomial map as a binary matrix on the torus: entry
    (r * N + s, t * N + j) is the coefficient of x^(s - j) in m[r][t], the
    rows of `_block_rows` in the one block of g = x^L + 1 on every axis."""
    n = shape.n_sites
    return Gf2Matrix(m.rows * n, m.cols * n, _block_rows(m, shape.lengths, _whole(shape.lengths)))


def _block_rows(m: GeneratorMap, lengths, factors) -> list[int]:
    """Rows (r, s) of m in the block of one factor g = x^D + low of x^L + 1
    per axis, whose sites are the monomials below x^D in row-major order:
    row (r, 0) places each term x^e of m[r][t] at x^-e, and row (r, s) is
    its product by site s.  A step along an axis multiplies by x, so
    coordinate D - 1 lands on each term of low: with g = x^L + 1, the torus
    wrap to 0.  Rows come by r, then by s in row-major order."""
    if m.dim != len(lengths):
        raise ValueError("map dimension does not match torus dimension")
    translates = [_place([p.antipode() for p in row], lengths, factors) for row in m.entries]
    n = math.prod(g.bit_length() - 1 for g in factors)
    full = (1 << m.cols * n) - 1
    # each translate expands in place into its steps along the next axis, so taking
    # the axes slowest first keeps every row's translates together in row-major order
    stride = n
    for g in factors:
        length = g.bit_length() - 1
        terms = g ^ 1 << length
        stride //= length
        # `low` selects the bits whose coordinate on the axis is below D - 1, tiled
        # over every column block; the slab at D - 1 moves down by `wrap` to 0
        repunit = full // ((1 << length * stride) - 1)
        low = ((1 << (length - 1) * stride) - 1) * repunit
        high, wrap = full ^ low, (length - 1) * stride
        steps = []
        if terms == 1:  # the torus wrap; a product by 1 would copy the slab
            for u in translates:
                steps.append(u)
                for _ in range(length - 1):
                    u = ((u & low) << stride) | ((u & high) >> wrap)
                    steps.append(u)
        else:
            # times `spread` the slab lands on every term of g's low part at
            # once, as its copies never overlap
            spread = _spread(terms, stride)
            for u in translates:
                steps.append(u)
                for _ in range(length - 1):
                    u = ((u & low) << stride) ^ ((u & high) >> wrap) * spread
                    steps.append(u)
        translates = steps
    return translates


def _spread(poly: int, step: int) -> int:
    """poly(x^step) for a bit polynomial: bit k moves to bit k * step."""
    out = 0
    while poly:
        k = poly.bit_length() - 1
        poly ^= 1 << k
        out |= 1 << k * step
    return out


def place_column(col, shape: TorusShape) -> int:
    """Torus bits of a polynomial column at site 0: the term x^e in entry t
    is bit t * N + site_index(e).  Terms that fold onto one site cancel.
    The whole-torus case of `_place`, with g = x^L + 1 on every axis."""
    return _place(col, shape.lengths, _whole(shape.lengths))


@functools.cache
def _whole(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """x^L + 1 on every axis: the factors whose one block is the torus."""
    return tuple(1 << l | 1 for l in lengths)


def _place(col, lengths, factors) -> int:
    """Bits of a polynomial column in the block of one factor g of x^L + 1
    per axis: the term x^e in entry t is the product over the axes of
    x^(e mod L) mod g, shifted to column block t.  With g = x^L + 1 each
    residue is one monomial.  Terms that land on one bit cancel mod 2."""
    n, tables = _residues(lengths, factors)
    bits = 0
    for t, p in enumerate(col):
        for e in p.terms:
            # the axes' residues occupy disjoint digits of the row-major
            # index, so their integer product is their polynomial product
            v = 1
            for table, c in zip(tables, e):
                v *= table[c % len(table)]
            bits ^= v << t * n
    return bits


@functools.cache
def _residues(lengths: tuple[int, ...], factors: tuple[int, ...]):
    """(n, tables) for the block of one factor g per axis: its n = prod(deg g)
    sites, and per axis x^a mod g for each a < L, with x^i at bit i times
    the number of sites of the later axes (row-major order)."""
    tables, n = [], 1
    for length, g in zip(reversed(lengths), reversed(factors)):
        top, spread = (g.bit_length() - 1) * n, _spread(g, n)
        table, r = [], 1
        for _ in range(length):
            table.append(r)
            r <<= n
            if r >> top:
                r ^= spread
        tables.append(tuple(table))
        n = top
    return n, tuple(reversed(tables))


def read_column(bits: int, shape: TorusShape, n_entries: int) -> tuple[LaurentPoly, ...]:
    """The polynomial column whose torus bits are `bits`, the inverse of
    `place_column`: bit t * N + s is the term x^s in entry t, with the site
    read as coordinates in [0, L).  Only the set bits are walked."""
    n = shape.n_sites
    terms = [[] for _ in range(n_entries)]
    while bits:
        b = bits.bit_length() - 1
        bits ^= 1 << b
        t, s = divmod(b, n)
        terms[t].append(shape.site(s))
    return tuple(LaurentPoly(shape.dim, frozenset(ts)) for ts in terms)


# tori of at least this many sites are ranked block by block: the measured
# break-even of the block ranks against one whole-torus rank (`rank_on_torus`)
SPLIT_SITES = 1000


def rank_on_torus(m: GeneratorMap, shape: TorusShape) -> int:
    """GF(2) rank of `instantiate(m, shape)`.

    A tall map is instantiated through its dagger, whose rows are the
    columns of the instantiated map, so the basis takes the shorter side
    and no matrix is transposed: fewer, longer vectors eliminate several
    times faster on torus translate matrices.

    The rank is a sum of block ranks over the coprime factors of x^L + 1
    on each axis (Chinese remainder theorem, `_block_rank`).  A torus of
    at least SPLIT_SITES sites is ranked that way and a smaller one whole,
    as below about 1,000 sites the blocks cost more than they save.  Both
    sectors, best of 9 interleaved calls, blocks against whole: cubic
    L = 7 (343 sites) 1.15x, L = 9 (729) 0.86x, L = 10 (1,000) 0.77x,
    L = 12 0.49x; toric2d L = 30 (900) 1.04x, L = 36 (1,296) 0.86x;
    generalized_toric(3,1) L = 6 1.23x, L = 10 0.77x.
    """
    if m.cols < m.rows:
        m = m.dagger()
    return _rank(m, shape)


@functools.lru_cache(maxsize=256)
def _rank(m: GeneratorMap, shape: TorusShape) -> int:
    """Rank of a map no taller than wide; s and its dagger share one entry."""
    if shape.n_sites < SPLIT_SITES:
        return instantiate(m, shape).rank()
    return _block_rank(m, shape)


def _block_rank(m: GeneratorMap, shape: TorusShape) -> int:
    """GF(2) rank of `instantiate(m, shape)` as a sum of block ranks.

    The rows of the instantiated map span the submodule that m's rows
    generate over the torus ring.  Over GF(2), x^L + 1 is the product of
    the pairwise coprime factors g of `_axis_factors`, so by the Chinese
    remainder theorem the ring is the product of one block per choice of
    g on each axis, and the submodule's dimension is the sum of its
    images' dimensions, the ranks of the blocks' rows (`_block_rows`,
    placed as in `instantiate`).  An axis whose largest factor has degree
    above 7/8 of its length L is kept whole (g = x^L + 1): such a block is
    barely smaller, and its dense wrap makes it slower to eliminate (cubic
    code at prime L = 11 to 23: 1.2-1.6 times the one-block time).
    """
    axes = []
    for length in shape.lengths:
        factors = _axis_factors(length)
        if 8 * (max(factors).bit_length() - 1) > 7 * length:
            factors = (1 << length | 1,)
        axes.append(factors)
    return sum(len(Gf2Basis(_block_rows(m, shape.lengths, block)))
               for block in itertools.product(*axes))


@functools.cache
def _axis_factors(length: int) -> tuple[int, ...]:
    """The factors Phi_d(x^(2^p)) of x^L + 1 over GF(2), for L = 2^p * m with
    m odd and d | m ascending, as bit polynomials (bit i is x^i).  They are
    pairwise coprime: x^m + 1 has no repeated factor for odd m."""
    odd = length >> (length & -length).bit_length() - 1
    # Phi_d(x)^(2^p) = Phi_d(x^(2^p)) over GF(2)
    return tuple(_spread(_cyclotomic(d), length // odd)
                 for d in range(1, odd + 1) if odd % d == 0)


@functools.cache
def _cyclotomic(d: int) -> int:
    """Phi_d over GF(2) as a bit polynomial: x^d + 1 divided by Phi_e for
    each e | d below d, by exact long division."""
    q = 1 << d | 1
    for e in range(1, d):
        if d % e == 0:
            a, b, q = q, _cyclotomic(e), 0
            width = b.bit_length()
            while a:
                s = a.bit_length() - width
                q ^= 1 << s
                a ^= b << s
    return q


class CountReport(namedtuple("CountReport", (
        "shape", "n_qubits", "n_generator_translates", "stab_rank", "k_encoded", "bulk_term",
        "c_constant"))):
    """Encoded-qubit count on one torus, with the local-count bulk formula.

    bulk_term is N times the per-cell combination of qubit, generator and
    local kernel counts; c_constant is the leftover k - bulk_term coming
    from global generator products that collapse under closed boundaries.
    Either may be None when the local kernel counts could not be certified.
    """

    __slots__ = ()


def _per_cell(code: CodeSpec) -> int | None:
    """Per-cell local count q - s.cols + |ker s| - |ker s-dagger|, from
    certified bounded kernels.

    s is the X sector map of a CSS code, or its Z sector map when it has no
    X generators: qubits per site against generator types, then the local
    redundancies of the generators against the local fields of their
    dagger.  Returns None when certification does not go through.
    """
    from .syzygy import bounded_kernel, certification_lengths, certify_on_torus

    if not code.css:
        return None
    if code.n_x_types > 0:
        s = code.sigma_x
    elif code.n_z_types > 0:
        s = code.sigma_z
    else:
        return None
    ker_s, ker_s_dag = bounded_kernel(s), bounded_kernel(s.dagger())
    # the dagger keeps the support extent, so either kernel gives these lengths
    lengths = certification_lengths(ker_s)
    if not (certify_on_torus(ker_s, lengths).passed
            and certify_on_torus(ker_s_dag, lengths).passed):
        return None
    return code.q_per_site - s.cols + len(ker_s.generators) - len(ker_s_dag.generators)


def _sigma_rank(code: CodeSpec, shape: TorusShape) -> int:
    """Rank of the instantiated sigma of a commuting code; a CSS code ranks
    its two sectors apart, as the full sigma is block-diagonal."""
    report = verify_stabilizer(code)
    if not report.passed:
        raise ValueError(f"code is not commuting: {report}")
    if not code.css:
        return rank_on_torus(code.sigma, shape)
    return rank_on_torus(code.sigma_x, shape) + rank_on_torus(code.sigma_z, shape)


def count_logical(code: CodeSpec, shape: TorusShape) -> CountReport:
    """Count encoded qubits as n - rank of the instantiated stabilizer translates."""
    n = code.q_per_site * shape.n_sites
    stab_rank = _sigma_rank(code, shape)
    k = n - stab_rank
    bulk = None
    c = None
    per_cell = _per_cell(code)
    if per_cell is not None:
        bulk = per_cell * shape.n_sites
        c = k - bulk
    return CountReport(
        shape=shape,
        n_qubits=n,
        n_generator_translates=code.full_sigma().cols * shape.n_sites,
        stab_rank=stab_rank,
        k_encoded=k,
        bulk_term=bulk,
        c_constant=c,
    )


def logical_operator_gap(code: CodeSpec, shape: TorusShape) -> tuple[int, int, int]:
    """(dim ker instantiated epsilon, rank instantiated sigma, gap).

    The instantiated epsilon is the instantiated sigma transposed with its
    X and Z blocks swapped, so both have rank r, and the gap is 2k.
    """
    n = code.q_per_site * shape.n_sites
    rank = _sigma_rank(code, shape)
    return 2 * n - rank, rank, 2 * n - 2 * rank
