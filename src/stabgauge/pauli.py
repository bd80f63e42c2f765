"""Pauli operators as polynomial columns and module maps between them.

A Pauli operator on a lattice with Q qubits per site is a column of 2Q
Laurent polynomials: Q X-block entries followed by Q Z-block entries.
Generator maps are rectangular matrices of polynomials; composing the
symplectic conjugate of a stabilizer map with the map itself tests
commutativity of every pair of generator translates at once.
"""

from __future__ import annotations

from collections import namedtuple

from .poly import LaurentPoly, support_box


class GeneratorMap(namedtuple("GeneratorMap", ("dim", "entries", "cols"))):
    """Matrix of Laurent polynomials: a tuple of rows, and the column count,
    which a map without rows cannot read off them (0 when omitted)."""

    __slots__ = ()
    # no tuple concatenation or repetition: `+` and `*` raise TypeError
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, dim: int, entries: tuple[tuple[LaurentPoly, ...], ...],
                cols: int | None = None) -> GeneratorMap:
        entries = tuple(map(tuple, entries))
        width = len(entries[0]) if entries else (cols or 0)
        if cols not in (None, width):
            raise ValueError("column count does not match the rows")
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged generator map")
            for p in row:
                if p.dim != dim:
                    raise ValueError("entry dimension does not match map dimension")
        return super().__new__(cls, dim, entries, width)

    @classmethod
    def from_rows(cls, dim: int, rows) -> GeneratorMap:
        return cls(dim, rows)

    @classmethod
    def from_columns(cls, dim: int, rows: int, columns) -> GeneratorMap:
        """Build a map with `rows` rows whose columns are the given sequences."""
        columns = list(columns)
        return cls(dim, tuple(tuple(col[i] for col in columns) for i in range(rows)), len(columns))

    @classmethod
    def zero(cls, dim: int, rows: int, cols: int) -> GeneratorMap:
        z = LaurentPoly.zero(dim)
        return cls(dim, tuple(tuple(z for _ in range(cols)) for _ in range(rows)), cols)

    @classmethod
    def identity(cls, dim: int, n: int) -> GeneratorMap:
        one = LaurentPoly.one(dim)
        z = LaurentPoly.zero(dim)
        return cls(dim, tuple(tuple(one if i == j else z for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> tuple[LaurentPoly, ...]:
        return tuple(row[j] for row in self.entries)

    def dagger(self) -> GeneratorMap:
        """Transpose with every entry sent through the antipode."""
        return GeneratorMap(
            self.dim,
            tuple(
                tuple(self.entries[i][j].antipode() for i in range(self.rows))
                for j in range(self.cols)
            ),
            self.rows,
        )

    def compose(self, other: GeneratorMap) -> GeneratorMap:
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in composition: {self.rows}x{self.cols} o {other.rows}x{other.cols}"
            )
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in composition")
        return GeneratorMap.from_columns(
            self.dim, self.rows, [self.apply(other.column(j)) for j in range(other.cols)])

    def apply(self, col) -> tuple[LaurentPoly, ...]:
        """The map times one column of polynomials (one entry per map column)."""
        out = []
        for row in self.entries:
            acc = LaurentPoly.zero(self.dim)
            for p, c in zip(row, col):
                acc = acc + p * c
            out.append(acc)
        return tuple(out)

    def support_extent(self) -> tuple[int, ...]:
        """Per-axis width of the combined support box of all entries (0 for a zero map)."""
        box = support_box(p for row in self.entries for p in row)
        if box is None:
            return (0,) * self.dim
        return tuple(h - l for l, h in zip(*box))


class PauliColumn(namedtuple("PauliColumn", ("dim", "q", "x_block", "z_block"))):
    """A lattice Pauli operator: Q X-block and Q Z-block polynomials."""

    __slots__ = ()
    # no tuple concatenation or repetition: `+` and `*` raise TypeError
    __add__ = __mul__ = __rmul__ = None

    def __new__(cls, dim: int, q: int, x_block: tuple[LaurentPoly, ...],
                z_block: tuple[LaurentPoly, ...]) -> PauliColumn:
        x_block, z_block = tuple(x_block), tuple(z_block)
        if len(x_block) != q or len(z_block) != q:
            raise ValueError("block length does not match qubit count")
        for p in x_block + z_block:
            if p.dim != dim:
                raise ValueError("entry dimension mismatch")
        return super().__new__(cls, dim, q, x_block, z_block)

    @classmethod
    def single_x(cls, dim: int, q: int, i: int) -> PauliColumn:
        """X on qubit type i of the site at the origin, of q types per site."""
        z = LaurentPoly.zero(dim)
        return cls(dim, q, GeneratorMap.identity(dim, q).column(i), (z,) * q)

    @classmethod
    def from_entries(cls, dim: int, entries) -> PauliColumn:
        """Build from a flat 2Q sequence of polynomials (X block then Z block)."""
        entries = tuple(entries)
        if len(entries) % 2:
            raise ValueError("need an even number of entries")
        q = len(entries) // 2
        return cls(dim, q, entries[:q], entries[q:])

    def entries(self) -> tuple[LaurentPoly, ...]:
        return self.x_block + self.z_block

    def is_identity(self) -> bool:
        return all(p.is_zero() for p in self.entries())


def symplectic_pair(a: PauliColumn, b: PauliColumn) -> LaurentPoly:
    """Full commutation polynomial of two Pauli columns.

    The coefficient of x^i is 1 exactly when b anticommutes with the
    i-translate of a; the constant term alone decides the untranslated
    pair, and the whole polynomial vanishes iff all translate pairs
    commute.
    """
    if a.dim != b.dim or a.q != b.q:
        raise ValueError("shape mismatch in symplectic pairing")
    acc = LaurentPoly.zero(a.dim)
    for q in range(a.q):
        acc = acc + a.z_block[q].antipode() * b.x_block[q]
        acc = acc + a.x_block[q].antipode() * b.z_block[q]
    return acc


def epsilon_of(sigma: GeneratorMap) -> GeneratorMap:
    """Symplectic conjugate of a full stabilizer map (2Q rows).

    Row t of the result is the dagger of generator column t with its X and
    Z blocks exchanged, so that (epsilon o sigma)[t, t'] is the symplectic
    pairing polynomial of generators t and t'.
    """
    if sigma.rows % 2:
        raise ValueError("stabilizer map must have an even number of rows")
    q = sigma.rows // 2
    out = []
    for t in range(sigma.cols):
        row = [sigma.entries[q + i][t].antipode() for i in range(q)]
        row += [sigma.entries[i][t].antipode() for i in range(q)]
        out.append(tuple(row))
    return GeneratorMap(sigma.dim, tuple(out), sigma.rows)


class CodeSpec(namedtuple("CodeSpec", ("name", "css", "sigma_x", "sigma_z", "sigma", "notes"))):
    """A translation-invariant stabilizer Hamiltonian.

    CSS codes carry sigma_x and sigma_z (Q x T_x and Q x T_z, each in its
    own sector; a sector without generators is a Q x 0 map); mixed codes
    carry the full 2Q x T map in `sigma`.  The lattice dimension and Q are
    read off the maps.
    """

    __slots__ = ()

    def __new__(cls, name: str, css: bool, sigma_x: GeneratorMap | None = None,
                sigma_z: GeneratorMap | None = None, sigma: GeneratorMap | None = None,
                notes: str = "") -> CodeSpec:
        if css:
            if sigma_x is None or sigma_z is None:
                raise ValueError("CSS code needs both sector maps")
            if sigma_x.rows != sigma_z.rows or sigma_x.dim != sigma_z.dim:
                raise ValueError("CSS sector maps must share rows and dimension")
        elif sigma is None or sigma.rows % 2:
            raise ValueError("mixed code needs a 2Q-row sigma")
        return super().__new__(cls, name, css, sigma_x, sigma_z, sigma, notes)

    @property
    def dim(self) -> int:
        return (self.sigma_x if self.css else self.sigma).dim

    @property
    def q_per_site(self) -> int:
        return self.sigma_x.rows if self.css else self.sigma.rows // 2

    @property
    def n_x_types(self) -> int:
        return self.sigma_x.cols if self.css else 0

    @property
    def n_z_types(self) -> int:
        return self.sigma_z.cols if self.css else 0

    def full_sigma(self) -> GeneratorMap:
        """The stabilizer map on the full 2Q-row Pauli module."""
        if not self.css:
            return self.sigma
        z = LaurentPoly.zero(self.dim)
        xpad = (z,) * self.n_z_types
        zpad = (z,) * self.n_x_types
        rows = [row + xpad for row in self.sigma_x.entries]
        rows += [zpad + row for row in self.sigma_z.entries]
        return GeneratorMap(self.dim, tuple(rows), self.n_x_types + self.n_z_types)

    def generator_columns(self) -> list[PauliColumn]:
        full = self.full_sigma()
        return [PauliColumn.from_entries(self.dim, full.column(j)) for j in range(full.cols)]


class VerifyReport(namedtuple("VerifyReport", ("passed", "witness"), defaults=(None,))):
    __slots__ = ()

    def __str__(self) -> str:
        if self.passed:
            return "commuting: all generator translate pairs commute"
        t, u, p = self.witness
        return f"NOT commuting: generators {t} and {u} pair to {p}"


def verify_stabilizer(code: CodeSpec) -> VerifyReport:
    """Check epsilon o sigma = 0 symbolically; on failure return the witness entry."""
    sigma = code.full_sigma()
    if sigma.cols == 0:
        return VerifyReport(True)
    product = epsilon_of(sigma).compose(sigma)
    for t in range(product.rows):
        for u in range(product.cols):
            if not product.entries[t][u].is_zero():
                return VerifyReport(False, (t, u, product.entries[t][u]))
    return VerifyReport(True)


def normalize_column(entries: tuple[LaurentPoly, ...]) -> tuple[LaurentPoly, ...]:
    """Translate a polynomial column so the min corner of its support box sits at 0.

    Every exponent of the result is nonnegative, so a normalized column
    stays inside any box its extent fits.  Columns that differ only by an
    overall monomial factor normalize to the same value, which is the
    equality-up-to-translation used throughout; a zero column is returned
    unchanged.
    """
    box = support_box(entries)
    if box is None:
        return entries
    shift = tuple(-e for e in box[0])
    return tuple(p.shift(shift) for p in entries)


def columns_equal_up_to_translation(
    a: tuple[LaurentPoly, ...], b: tuple[LaurentPoly, ...]
) -> bool:
    return normalize_column(a) == normalize_column(b)


def canonical_column_set(m: GeneratorMap) -> list[tuple[LaurentPoly, ...]]:
    """Translation-normalized columns in a canonical sort order."""
    cols = [normalize_column(m.column(j)) for j in range(m.cols)]
    return sorted(cols, key=lambda col: tuple(p.sorted_terms() for p in col))


def maps_equal_up_to_translation(a: GeneratorMap, b: GeneratorMap) -> bool:
    """Equality of generator sets up to per-column translation and column order."""
    if a.dim != b.dim or a.rows != b.rows or a.cols != b.cols:
        return False
    return canonical_column_set(a) == canonical_column_set(b)


_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


def _site_label(op: PauliColumn, site: tuple[int, ...]) -> str:
    out = []
    for q in range(op.q):
        x = 1 if site in op.x_block[q].terms else 0
        z = 1 if site in op.z_block[q].terms else 0
        out.append(_LETTER[(x, z)])
    return "".join(out)


def render_diagram(op: PauliColumn | GeneratorMap) -> str:
    """ASCII per-site letter diagram of an operator's support box (dim <= 3).

    For dim 2 the y axis points up; for dim 3 the grid is printed one z
    slice at a time.  Each site shows Q letters from {I, X, Z, Y}.
    """
    if isinstance(op, GeneratorMap):
        cols = [
            PauliColumn.from_entries(op.dim, op.column(j)) for j in range(op.cols)
        ]
        return "\n\n".join(
            f"generator {j}:\n{render_diagram(c)}" for j, c in enumerate(cols)
        )
    if op.dim > 3:
        raise ValueError("diagrams are only rendered for dim <= 3")
    if op.is_identity():
        return "I" * op.q
    lo, hi = support_box(op.entries())
    if op.dim == 1:
        return " ".join(_site_label(op, (x,)) for x in range(lo[0], hi[0] + 1))
    if op.dim == 2:
        lines = []
        for y in range(hi[1], lo[1] - 1, -1):
            lines.append(
                " ".join(_site_label(op, (x, y)) for x in range(lo[0], hi[0] + 1))
            )
        return "\n".join(lines)
    lines = []
    for z in range(lo[2], hi[2] + 1):
        lines.append(f"z={z}:")
        for y in range(hi[1], lo[1] - 1, -1):
            lines.append(
                "  "
                + " ".join(_site_label(op, (x, y, z)) for x in range(lo[0], hi[0] + 1))
            )
    return "\n".join(lines)
