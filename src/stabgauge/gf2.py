"""Dense GF(2) linear algebra on bit-packed rows.

Rows are stored as Python integers used as bit sets (bit j = column j),
so row updates are single word-level XOR operations.  Pivoting is
deterministic: first nonzero column, lowest row index.  All results are
reproducible bit-exactly across runs.
"""

from __future__ import annotations


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

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> Gf2Matrix:
        """Build from a list of 0/1 lists."""
        n = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
            acc = 0
            for j, v in enumerate(r):
                if v & 1:
                    acc |= 1 << j
            data.append(acc)
        return cls(len(rows), n, data)

    @classmethod
    def identity(cls, n: int) -> Gf2Matrix:
        return cls(n, n, [1 << i for i in range(n)])

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __str__(self) -> str:
        return "\n".join(
            "".join("1" if (r >> j) & 1 else "0" for j in range(self.cols))
            for r in self.data
        )

    def transpose(self) -> Gf2Matrix:
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            while r:
                low = r & -r
                j = low.bit_length() - 1
                out[j] |= 1 << i
                r ^= low
        return Gf2Matrix(self.cols, self.rows, out)

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector (bit i of result = parity of row i AND v)."""
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def mul(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for r in self.data:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                k = low.bit_length() - 1
                acc ^= other.data[k]
                rr ^= low
            out.append(acc)
        return Gf2Matrix(self.rows, other.cols, out)

    def stack(self, other: Gf2Matrix) -> Gf2Matrix:
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Gf2Matrix(self.rows + other.rows, self.cols, self.data + other.data)

    def row_reduce(self) -> tuple[list[int], list[int]]:
        """Reduced row echelon form.

        Returns:
            (reduced, pivot_cols): reduced row bitmasks and the pivot column
            of each pivot row, in elimination order.
        """
        work = list(self.data)
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r >= len(work):
                break
            bit = 1 << c
            pivot = None
            for i in range(r, len(work)):
                if work[i] & bit:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(len(work)):
                if i != r and (work[i] & bit):
                    work[i] ^= work[r]
            pivots.append(c)
            r += 1
        return work, pivots

    def rank(self) -> int:
        """GF(2) rank via Gaussian elimination; the matrix is not modified."""
        return len(self.row_reduce()[1])

    def nullspace(self) -> list[int]:
        """Basis of the right nullspace as column bitmasks.

        Returns:
            cols - rank vectors v (bit j = coordinate j) with self @ v = 0,
            one per free column, in ascending free-column order.
        """
        reduced, pivots = self.row_reduce()
        pivot_set = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            v = 1 << f
            for r, c in enumerate(pivots):
                if (reduced[r] >> f) & 1:
                    v |= 1 << c
            basis.append(v)
        return basis

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
        col_mask = (1 << self.cols) - 1
        b_bit = 1 << self.cols
        x = 0
        for r, row in enumerate(reduced):
            if r < len(pivots) and pivots[r] < self.cols:
                if row & b_bit:
                    x |= 1 << pivots[r]
            elif row & b_bit and not (row & col_mask):
                return None
            elif r < len(pivots) and pivots[r] == self.cols:
                return None
        return x

