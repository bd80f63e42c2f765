"""Independent brute-force reference implementations used only by tests.

The GF(2) and torus oracles deliberately avoid the library's packed GF(2)
matrices and torus instantiation: arithmetic is dense numpy uint8, and
stabilizer translates are enumerated directly with modular coordinate
arithmetic.  The smallscale report oracle at the end enumerates every
state and matrix entry of the paper's lemmas, in exact integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from stabgauge.gauging import conjugate_by_disentangler
from stabgauge.gf2 import Gf2Basis
from stabgauge.smallscale import CheckReport, GroundspaceReport, _gauged_image
from stabgauge.syzygy import KernelBasis, bounded_kernel, certification_lengths, certify_on_torus
from stabgauge.torus import instantiate, rank_on_torus


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


# ---------------------------------------------------------------------------
# The smallscale report oracle: the lemmas checked by enumeration.
#
# Every state is held column by column, as one gauge-only coset rep and one
# sign per matter basis state, and every matter-space matrix as integer dict
# rows over one power-of-two denominator; the checks compare them entry by
# entry over all 2^n_matter columns and all 2^|gamma| twirls.  The lattice's
# masks, the symmetry group K and the ground dimensions come from the library
# (`DenseLattice.masks`, `constraint_masks`, the torus kernel of eta-dagger);
# only the states and matrices are enumerated here.  Reports are the
# library's `CheckReport` and `GroundspaceReport`, so they compare repr for
# repr with `stabgauge.smallscale`'s.
# ---------------------------------------------------------------------------


def _parity_sign(bits: int) -> int:
    return -1 if bits.bit_count() & 1 else 1


class CosetColumns(namedtuple("CosetColumns", ("reps", "signs"))):
    """Column j is signs[j] (+1, -1 or 0) times the lattice's magnitude
    2^-((n_matter + dim K)/2) on every basis state reps[j] ^ W(u), for W =
    `coset_rows`, and zero everywhere else."""

    __slots__ = ()


class MatterMatrix(namedtuple("MatterMatrix", ("rows", "den_exp"))):
    """An exact matrix on the matter space: row r is the dict rows[r]
    {column: numerator}, every numerator over 2^den_exp."""

    __slots__ = ()


@functools.cache
def coset_rows(lat) -> tuple[int, ...]:
    """W(u) for every matter pattern u: the product of the Gauss-law X masks
    of the matter bits set in u.  Its matter bits are u."""
    rows = [0]
    for i, (xm, zm) in enumerate(lat.constraint_masks):
        assert zm == 0 and xm & lat.matter_mask == 1 << i, "Gauss-law mask is not a matter X"
        rows += [r ^ xm for r in rows]
    return tuple(rows)


@functools.cache
def symmetry_group(lat) -> tuple[int, ...]:
    """Every element of K, the span of the torus kernel of eta-dagger."""
    group = [0]
    for v in instantiate(lat.model.constraint_map.dagger(), lat.shape).nullspace():
        group += [k ^ v for k in group]
    return tuple(group)


def _symmetry_dim(lat) -> int:
    return len(symmetry_group(lat)).bit_length() - 1


def split_mask(lat, xmask: int) -> tuple[int, int]:
    """(rep, u) of an X mask: u is its matter bits and rep = xmask ^ W(u)."""
    u = xmask & lat.matter_mask
    return xmask ^ coset_rows(lat)[u], u


def keeps_gauss_law(lat, zmask: int) -> bool:
    rows = coset_rows(lat)
    return not any((zmask & rows[1 << i]).bit_count() & 1 for i in range(lat.n_matter))


def build_G(lat) -> CosetColumns:
    """Column u of the scaled gauging map: the coset of basis state u."""
    reps = tuple(w ^ u for u, w in enumerate(coset_rows(lat)))
    return CosetColumns(reps, (1,) * len(reps))


def apply_pauli(lat, state: CosetColumns, xmask: int, zmask: int) -> CosetColumns:
    """X(xmask) Z(zmask), Z first, column by column."""
    if not keeps_gauss_law(lat, zmask):
        raise ValueError(f"Z mask {zmask:#x} anticommutes with a Gauss-law generator")
    rep, _ = split_mask(lat, xmask)
    signs = tuple(s * _parity_sign(r & zmask) for r, s in zip(state.reps, state.signs))
    return CosetColumns(tuple(r ^ rep for r in state.reps), signs)


def max_deviation(lat, a: CosetColumns, b: CosetColumns) -> float:
    """Largest |a - b| over all basis states, column pair by column pair."""
    worst = max((abs(sa - sb) if ra == rb else max(abs(sa), abs(sb))
                 for ra, sa, rb, sb in zip(a.reps, a.signs, b.reps, b.signs, strict=True)),
                default=0)
    return worst * 2.0 ** (-(lat.n_matter + _symmetry_dim(lat)) / 2)


def coset_rank(state: CosetColumns) -> int:
    """The number of cosets holding a nonzero column."""
    return len({r for r, s in zip(state.reps, state.signs) if s})


def matrix_deviation(a: MatterMatrix, b: MatterMatrix) -> float:
    den = max(a.den_exp, b.den_exp)
    scale_a, scale_b = 1 << (den - a.den_exp), 1 << (den - b.den_exp)
    worst = 0
    for ra, rb in zip(a.rows, b.rows, strict=True):
        for col in ra.keys() | rb.keys():
            worst = max(worst, abs(ra.get(col, 0) * scale_a - rb.get(col, 0) * scale_b))
    return math.ldexp(float(worst), -den)


def _matter_masks(lat, op) -> tuple[int, int]:
    if op.q != lat.model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    return lat.masks(op)


def matter_operator(lat, op) -> MatterMatrix:
    """X(x) Z(z) maps basis state c to sign(c & z) times basis state c ^ x."""
    xm, zm = _matter_masks(lat, op)
    return MatterMatrix(tuple({r ^ xm: _parity_sign((r ^ xm) & zm)}
                              for r in range(1 << lat.n_matter)), 0)


def symmetrize(lat, m: MatterMatrix) -> MatterMatrix:
    """P_sym @ m: row r is the sum of m's rows r ^ k over k in K."""
    group = symmetry_group(lat)
    out: list[dict[int, int] | None] = [None] * len(m.rows)
    for r in range(len(out)):
        if out[r] is None:
            acc: dict[int, int] = {}
            for k in group:
                for col, v in m.rows[r ^ k].items():
                    acc[col] = acc.get(col, 0) + v
            for k in group:
                out[r ^ k] = acc
    return MatterMatrix(tuple(out), m.den_exp + _symmetry_dim(lat))


def symmetric_projector(lat) -> MatterMatrix:
    identity = MatterMatrix(tuple({r: 1} for r in range(1 << lat.n_matter)), 0)
    return symmetrize(lat, identity)


def gram(lat, a: CosetColumns, b: CosetColumns) -> MatterMatrix:
    """a^T b: columns on one coset overlap with the squared magnitude on
    each of its 2^n_matter basis states, columns on different cosets nowhere."""
    by_rep: dict[int, dict[int, int]] = {}
    for k, (r, s) in enumerate(zip(b.reps, b.signs)):
        if s:
            by_rep.setdefault(r, {})[k] = s
    rows = []
    for r, s in zip(a.reps, a.signs):
        row = by_rep.get(r, {})
        rows.append(row if s == 1 else {k: s * v for k, v in row.items()})
    return MatterMatrix(tuple(rows), _symmetry_dim(lat))


def times_matter_pauli(lat, state: CosetColumns, op) -> CosetColumns:
    """state @ O: column k is the state's column k ^ x times sign(k & z)."""
    xm, zm = _matter_masks(lat, op)
    cols = range(len(state.reps))
    return CosetColumns(tuple(state.reps[k ^ xm] for k in cols),
                        tuple(state.signs[k ^ xm] * _parity_sign(k & zm) for k in cols))


def gauged_operator_action(lat, op):
    """The disentangled gauged image followed by the Gauss-law projector,
    which keeps every column or zeroes every column."""
    xmask, zmask = lat.masks(conjugate_by_disentangler(lat.model, _gauged_image(lat, op)))
    kept = keeps_gauss_law(lat, zmask)

    def act(state: CosetColumns) -> CosetColumns:
        if kept:
            return apply_pauli(lat, state, xmask, zmask)
        return CosetColumns(state.reps, (0,) * len(state.signs))

    return act


def check_lemma2(lat) -> CheckReport:
    g = build_G(lat)
    dev = matrix_deviation(gram(lat, g, g), symmetric_projector(lat))
    dim_k = _symmetry_dim(lat)
    return CheckReport("gram-vs-symmetric-projector", dev == 0, dev,
                       {"norm_exponent": lat.n_matter - dim_k, "symmetry_dim": dim_k})


def check_lemma3(lat, op) -> CheckReport:
    g = build_G(lat)
    dev = max_deviation(lat, times_matter_pauli(lat, g, op), gauged_operator_action(lat, op)(g))
    return CheckReport("intertwining", dev == 0, dev, {})


def check_claim1(lat, op) -> CheckReport:
    """Twirl over the Gauss-law generators of the operator's matter qubits,
    project the adjacent gauge qubits onto all-zero, and read the result off
    every matter basis state."""
    op_x, op_z = lat.masks(op)
    nm = lat.n_matter
    gamma_m = [i for i in range(nm) if ((op_x | op_z) >> i) & 1]
    pis = [lat.constraint_masks[i] for i in gamma_m]
    _, proj_mask = lat.masks(_gauged_image(lat, op))
    for xm, _ in pis:
        proj_mask |= xm
    proj_mask &= ~lat.matter_mask
    region_ok = len(Gf2Basis(xm >> nm for xm, _ in pis)) == len(gamma_m)
    patterns = [0]
    for i in gamma_m:
        patterns += [p | 1 << i for p in patterns]
    rows_w = coset_rows(lat)
    twirls = [rows_w[p] for p in patterns]

    terms: dict[tuple[int, int], int] = {}
    for u in range(1 << nm):
        for t in twirls:
            moved = u ^ t
            sign = _parity_sign(moved & op_z)
            moved ^= op_x
            if not moved & proj_mask:
                key = (u, moved ^ t)
                terms[key] = terms.get(key, 0) + sign
    rows: list[dict[int, int]] = [{} for _ in range(1 << nm)]
    for (u, basis_state), c in terms.items():
        if c and not basis_state >> nm:
            rows[basis_state][u] = c
    dev = matrix_deviation(MatterMatrix(tuple(rows), 0), matter_operator(lat, op))
    return CheckReport(
        name="partial-trace-inversion",
        passed=dev == 0 and region_ok,
        max_deviation=dev,
        details={"region_matter": len(gamma_m), "region_gauge": proj_mask.bit_count(),
                 "region_injective": region_ok},
    )


def check_matrix_elements(lat, op) -> CheckReport:
    """proj @ O against proj @ G^T O~ G, entry by entry."""
    g = build_G(lat)
    sandwich = gram(lat, g, gauged_operator_action(lat, op)(g))
    dev = matrix_deviation(symmetrize(lat, matter_operator(lat, op)), symmetrize(lat, sandwich))
    return CheckReport("matrix-elements", dev == 0, dev, {"states": 1 << lat.n_matter})


def check_groundspace_span(lat) -> GroundspaceReport:
    """Containment by applying every Gauss-law generator and flat field to
    every column of G, and the rank of G as its count of cosets."""
    eta = lat.model.constraint_map
    mu_map = bounded_kernel(eta).matrix()
    eta_dag = eta.dagger()
    exact = KernelBasis(mu_map.dagger(), eta_dag.support_extent(),
                        [eta_dag.column(j) for j in range(eta_dag.cols)])
    local_ok = certify_on_torus(exact, certification_lengths(exact)).passed
    ker_mu_dag = lat.n_gauge - rank_on_torus(mu_map, lat.shape)
    flat = instantiate(eta, lat.shape).nullspace()
    im_eta_dag = lat.n_gauge - len(flat)
    dim_flat, dim_local = 1 << im_eta_dag, 1 << ker_mu_dag

    g = build_G(lat)
    fields = ((0, v << lat.n_matter) for v in flat)
    contained = all(keeps_gauss_law(lat, zm) and apply_pauli(lat, g, xm, zm) == g
                    for xm, zm in (*lat.constraint_masks, *fields))
    g_rank = coset_rank(g)
    return GroundspaceReport(
        passed=local_ok and contained and g_rank == dim_flat,
        ground_dim_flat=dim_flat,
        ground_dim_local_fields=dim_local,
        holonomy_sectors=dim_local // dim_flat,
        g_rank=g_rank,
        contained=contained,
        local_exactness=local_ok,
        kernel_mu_dagger_dim=ker_mu_dag,
        image_eta_dagger_dim=im_eta_dag,
    )
