"""Independent brute-force reference implementations used only by tests.

Deliberately avoids the library's packed GF(2) matrices and torus
instantiation: arithmetic is dense numpy uint8, and stabilizer translates
are enumerated directly with modular coordinate arithmetic.
"""

from __future__ import annotations

import itertools

import numpy as np


def naive_rank(mat: np.ndarray) -> int:
    a = (mat % 2).astype(np.uint8).copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(m):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == m:
            break
    return r


def naive_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (first-column pivots) and the pivot columns."""
    a = (mat % 2).astype(np.uint8).copy()
    m, n = a.shape
    pivots = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        pivot = None
        for i in range(r, m):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        for i in range(m):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def naive_nullspace(mat: np.ndarray) -> list[np.ndarray]:
    a, pivots = naive_rref(mat)
    n = a.shape[1]
    basis = []
    pivot_set = set(pivots)
    for f in range(n):
        if f in pivot_set:
            continue
        v = np.zeros(n, dtype=np.uint8)
        v[f] = 1
        for row, c in enumerate(pivots):
            if a[row, f]:
                v[c] = 1
        basis.append(v)
    return basis


def naive_solve(mat: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of mat @ x = b with free variables zero, or None."""
    m, n = mat.shape
    a, pivots = naive_rref(np.hstack([mat % 2, np.asarray(b, dtype=np.uint8).reshape(m, 1)]))
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for row, c in enumerate(pivots):
        x[c] = a[row, n]
    return x


def naive_box_system(m, lo, hi, rhs=None) -> tuple[np.ndarray, np.ndarray]:
    """Dense equations of m . p = rhs for p supported in the box [lo, hi].

    Unknown j * n + k is the coefficient in entry j of p of the k-th box
    monomial, numbered row-major by numpy from lo.  Each (map row,
    monomial) pair that a product term or the rhs reaches is one equation,
    in sorted order; products are summed term by term.  Returns the 0/1
    matrix and right-hand side (all zero when rhs is None).
    """
    lo = np.asarray(lo)
    points = [tuple(lo + np.array(k)) for k in np.ndindex(*(np.asarray(hi) - lo + 1))]
    n = len(points)
    cells = {}
    for i in range(m.rows):
        for j in range(m.cols):
            for t in m.entries[i][j].terms:
                for k, e in enumerate(points):
                    u = (i, tuple(int(a) for a in np.add(t, e)))
                    cells[u, j * n + k] = cells.get((u, j * n + k), 0) ^ 1
    targets = set()
    if rhs is not None:
        targets = {(i, tuple(u)) for i, p in enumerate(rhs) for u in p.terms}
    eqs = sorted({u for u, _ in cells} | targets)
    index = {u: r for r, u in enumerate(eqs)}
    a = np.zeros((len(eqs), m.cols * n), dtype=np.uint8)
    for (u, c), bit in cells.items():
        a[index[u], c] = bit
    b = np.array([u in targets for u in eqs], dtype=np.uint8)
    return a, b


def stabilizer_rows(code, lengths) -> np.ndarray:
    """All generator translates as dense symplectic 0/1 rows.

    Row layout matches the library's torus ordering (sector block, then
    qubit type, then row-major site), but is produced by direct modular
    enumeration rather than the library's instantiation.
    """
    q = code.q_per_site
    n_sites = 1
    for length in lengths:
        n_sites *= length
    sites = list(itertools.product(*[range(length) for length in lengths]))
    site_idx = {s: i for i, s in enumerate(sites)}
    full = code.full_sigma()
    rows = []
    for t in range(full.cols):
        col = full.column(t)
        for base in sites:
            row = np.zeros(2 * q * n_sites, dtype=np.uint8)
            for r2 in range(2 * q):
                for mono in col[r2].terms:
                    wrapped = tuple(
                        (b + o) % length for b, o, length in zip(base, mono, lengths)
                    )
                    row[r2 * n_sites + site_idx[wrapped]] ^= 1
            rows.append(row)
    return np.array(rows, dtype=np.uint8) if rows else np.zeros((0, 2 * q * n_sites), dtype=np.uint8)


def naive_torus_column(col, shape) -> int:
    """Bits of one polynomial column on a torus, placed term by term.

    Entry r's term e lands on the site with coordinates e mod L, numbered
    row-major by numpy, at bit r * N + site; terms on one bit XOR away.
    """
    n_sites = int(np.prod(shape.lengths))
    acc = 0
    for r, p in enumerate(col):
        for term in p.terms:
            coords = tuple(e % length for e, length in zip(term, shape.lengths))
            acc ^= 1 << (r * n_sites + int(np.ravel_multi_index(coords, shape.lengths)))
    return acc


def naive_logical_count(code, lengths) -> int:
    rows = stabilizer_rows(code, lengths)
    n = code.q_per_site * rows.shape[1] // (2 * code.q_per_site)
    return n - naive_rank(rows)


def naive_pauli_matrix(n: int, xmask: int, zmask: int) -> np.ndarray:
    """Dense X(xmask) Z(zmask) on n qubits as a Kronecker product of 2x2 factors.

    Bit b of a basis index is qubit b, so the first factor is qubit n-1.
    """
    eye = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0]])
    out = np.ones((1, 1))
    for b in reversed(range(n)):
        factor = (x if (xmask >> b) & 1 else eye) @ (z if (zmask >> b) & 1 else eye)
        out = np.kron(out, factor)
    return out


def naive_gauging_map(n_matter: int, n_total: int, gauss_xmasks) -> np.ndarray:
    """Unnormalized state gauging map in coset form.

    The Gauss-law generators are pure X, so projecting the matter basis state
    lambda (gauge qubits all zero) onto their common +1 space gives column
    lambda = 2^-r * sum over s in span(gauss_xmasks) of |lambda xor s>, where
    2^r is the size of the span.
    """
    span = {0}
    for mask in gauss_xmasks:
        span |= {s ^ mask for s in span}
    out = np.zeros((1 << n_total, 1 << n_matter))
    for lam in range(1 << n_matter):
        for s in span:
            out[lam ^ s, lam] = 1.0 / len(span)
    return out


def naive_symmetric_projector(n_matter: int, gauss_xmasks) -> np.ndarray:
    """Average of X(g) over the symmetry group, on the matter qubits.

    Gauss-law generator k flips matter qubit k and its adjacent gauge
    qubits; a matter X pattern g is a symmetry when the product of the
    generators in g flips no gauge qubit.  The group is enumerated pattern by
    pattern and the average summed from Kronecker products.
    """
    group = []
    for g in range(1 << n_matter):
        product = 0
        for k in range(n_matter):
            if (g >> k) & 1:
                product ^= gauss_xmasks[k]
        if product == g:
            group.append(g)
    total = sum(naive_pauli_matrix(n_matter, g, 0) for g in group)
    return total / len(group)
