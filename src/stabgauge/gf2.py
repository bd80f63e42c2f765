"""Dense GF(2) linear algebra on bit-packed rows, over one elimination core.

Rows are stored as Python integers used as bit sets (bit j = column j),
so row updates are single word-level XOR operations.

Every elimination goes through `Gf2Basis`, an incremental echelon basis
that keys each stored row by its pivot, the row's highest set bit, so one
reduction step is a `bit_length` and a dict lookup.  `Gf2Matrix.rank`
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
        rows: maps each stored row's pivot, its highest set bit, to the row.
            No two rows share a pivot.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """Clear v's leading bits against the basis.

        Returns 0 when v lies in the span; otherwise a vector in the same
        coset whose highest bit is not a pivot.
        """
        rows = self.rows
        while v:
            r = rows.get(v.bit_length() - 1)
            if r is None:
                break
            v ^= r
        return v

    def add(self, v: int) -> bool:
        """Insert v; returns True when it enlarged the span."""
        v = self.reduce(v)
        if v:
            self.rows[v.bit_length() - 1] = v
        return bool(v)

    def contains(self, v: int) -> bool:
        return not self.reduce(v)

    def rref(self) -> list[int]:
        """Back-substitute in place; returns the rows by ascending pivot.

        Afterwards each pivot bit is set in its own row only.
        """
        rows = self.rows
        done = 0
        out = []
        for p in sorted(rows):
            r = rows[p]
            hits = r & done
            while hits:
                q = hits.bit_length() - 1
                # rows[q] is already reduced: bit q is its only pivot bit
                r ^= rows[q]
                hits ^= 1 << q
            rows[p] = r
            out.append(r)
            done |= 1 << p
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
        reduced = [flip(r) for r in reversed(echelon)]
        pivots = [(r & -r).bit_length() - 1 for r in reduced]
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
        free_mask = (1 << self.cols) - 1 - sum(1 << c for c in pivots)
        # one vector per free column, in ascending order; each pivot row
        # sets its pivot bit in the vectors of the free bits it holds
        basis = {f: 1 << f for f in range(self.cols) if (free_mask >> f) & 1}
        for r, c in enumerate(pivots):
            bits = reduced[r] & free_mask
            while bits:
                low = bits & -bits
                basis[low.bit_length() - 1] |= 1 << c
                bits ^= low
        return list(basis.values())

    def solve(self, b: int) -> int | None:
        """Solve self @ x = b for one x, or return None when inconsistent.

        The solution is deterministic: free variables are set to zero, so x
        is supported on pivot columns only.

        Args:
            b: right-hand side as a bitmask over rows.
        """
        aug = Gf2Matrix(
            self.rows,
            self.cols + 1,
            [r | (((b >> i) & 1) << self.cols) for i, r in enumerate(self.data)],
        )
        reduced, pivots = aug.row_reduce()
        if pivots and pivots[-1] == self.cols:
            return None
        x = 0
        for row, c in zip(reduced, pivots):
            if (row >> self.cols) & 1:
                x |= 1 << c
        return x

