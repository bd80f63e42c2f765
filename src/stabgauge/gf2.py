"""Dense GF(2) linear algebra on bit-packed rows, over one elimination core.

Rows are stored as Python integers used as bit sets (bit j = column j),
so row updates are single word-level XOR operations.

Every elimination goes through `Gf2Basis`, an incremental echelon basis
held as one flat pivot table: the stored row whose pivot, its highest set
bit, is bit b - 1 sits at index b, its `bit_length`, and every other
entry is 0.  One reduction step is then a `bit_length`, a list index and
an XOR, and a vector in the span ends at entry 0.  `Gf2Matrix.rank`
inserts the rows; which side of a torus matrix to insert is chosen by
`torus.rank_on_torus` before the matrix is built.  `Gf2Matrix.row_reduce`
needs first-column pivots, so it inserts the rows bit-reversed and
back-substitutes once; the reduced row echelon form of a row space is
unique, so the result does not depend on the insertion order.  All
results are reproducible bit-exactly.
"""

from __future__ import annotations


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


class Gf2Basis:
    """Incremental echelon basis of a subspace of GF(2)^n.

    Attributes:
        rows: the pivot table.  rows[b] is the stored row whose highest set
            bit, its pivot, is bit b - 1, or 0 when no row has that pivot;
            rows[0] is always 0.  The table grows to one past the bit
            length of the widest vector inserted.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        rows = self.rows = [0]
        size = 1
        # the loop of `add`, inlined: one frame for all the vectors
        for v in vectors:
            b = v.bit_length()
            if b >= size:
                rows += [0] * (b + 1 - size)
                size = b + 1
            while r := rows[b]:
                v ^= r
                b = v.bit_length()
            rows[b] = v

    def __len__(self) -> int:
        rows = self.rows
        return len(rows) - rows.count(0)

    def reduce(self, v: int) -> int:
        """Clear v's leading bits against the basis.

        Returns 0 when v lies in the span; otherwise a vector in the same
        coset whose highest bit is not a pivot.
        """
        rows = self.rows
        # a vector wider than the table leads with a bit that is no pivot;
        # every other step lands inside the table, and rows[0] ends the loop
        if v.bit_length() < len(rows):
            while r := rows[v.bit_length()]:
                v ^= r
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True when it enlarged the span."""
        rows = self.rows
        b = v.bit_length()
        if b >= len(rows):
            rows += [0] * (b + 1 - len(rows))
        while r := rows[b]:
            v ^= r
            b = v.bit_length()
        # a vector in the span reduces to 0 and is written to rows[0], which stays 0
        rows[b] = v
        return b > 0

    def contains(self, v: int) -> bool:
        return not self.reduce(v)

    def rref(self) -> list[int]:
        """Back-substitute in place; returns the rows by ascending pivot.

        Afterwards each pivot bit is set in its own row only.
        """
        rows = self.rows
        done = 0
        out = []
        for b, r in enumerate(rows):
            if r:
                hits = r & done
                while hits:
                    q = hits.bit_length()
                    # rows[q] is already reduced: its pivot is its only pivot bit
                    r ^= rows[q]
                    hits ^= 1 << (q - 1)
                rows[b] = r
                out.append(r)
                done |= 1 << (b - 1)
        return out


class Gf2Matrix:
    """Dense binary matrix with XOR row arithmetic.

    Attributes:
        rows: number of rows.
        cols: number of columns.
        data: list of row bitmasks; bit j of data[i] is entry (i, j).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise ValueError("row count does not match data")
            mask = (1 << cols) - 1
            self.data = [r & mask for r in data]

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector (bit i of result = parity of row i AND v)."""
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def row_reduce(self) -> tuple[list[int], list[int]]:
        """Reduced row echelon form with first-column pivots.

        Returns:
            (reduced, pivot_cols): the reduced rows by ascending pivot column,
            padded with zero rows to `rows` rows, and the pivot column of each
            pivot row.
        """
        n = self.cols
        width, pad = (n + 7) // 8, -n % 8

        def flip(v: int) -> int:
            # bit j <-> bit n-1-j, so the highest-bit pivot is the first column:
            # reverse the bytes and the bits in each byte, then drop the padding
            reversed_bytes = v.to_bytes(width, "big").translate(_REVERSED_BYTES)
            return int.from_bytes(reversed_bytes, "little") >> pad

        # zero rows span nothing
        echelon = Gf2Basis(flip(r) for r in self.data if r).rref()
        echelon.reverse()
        reduced = [flip(r) for r in echelon]
        # a flipped row's pivot bit b - 1 is column n - b
        pivots = [n - r.bit_length() for r in echelon]
        return reduced + [0] * (self.rows - len(reduced)), pivots

    def rank(self) -> int:
        """GF(2) rank; the matrix is not modified."""
        return len(Gf2Basis(self.data))

    def nullspace(self) -> list[int]:
        """Basis of the right nullspace as column bitmasks.

        Returns:
            cols - rank vectors v (bit j = coordinate j) with self @ v = 0,
            one per free column, in ascending free-column order.
        """
        reduced, pivots = self.row_reduce()
        pivot_set = set(pivots)
        # one vector per free column, in ascending order; each pivot row
        # sets its pivot bit in the vectors of the free columns it holds
        basis = {f: 1 << f for f in range(self.cols) if f not in pivot_set}
        for r, c in zip(reduced, pivots):
            bit = 1 << c
            # a reduced row's only pivot bit is its pivot, so the rest are free
            free = r ^ bit
            while free:
                f = free.bit_length() - 1
                basis[f] |= bit
                free ^= 1 << f
        return list(basis.values())

    def solve(self, b: int) -> int | None:
        """Solve self @ x = b for one x, or return None when inconsistent.

        The solution is deterministic: free variables are set to zero, so x
        is supported on pivot columns only.  It is read off the nullspace of
        [A | b]: b's column, the last, is free exactly when the system is
        consistent, and then the last nullspace vector is x plus b's bit.

        Args:
            b: right-hand side as a bitmask over rows.
        """
        aug = Gf2Matrix(
            self.rows,
            self.cols + 1,
            [r | (((b >> i) & 1) << self.cols) for i, r in enumerate(self.data)],
        )
        last = (aug.nullspace() or [0])[-1]
        return last ^ (1 << self.cols) if last >> self.cols else None

