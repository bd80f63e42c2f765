"""Finite-torus instantiation of polynomial maps and encoded-qubit counting.

Bit layout on a torus of N sites, used by every module: `instantiate` is
the only code that sends polynomial terms to torus bits.  Row r of a map
at site s is bit `r * N + s`, and the translate of column t to site s is
column `t * N + s`, with sites in row-major order (`TorusShape.sites`).
Exponents are reduced mod the lengths, so terms that land on the same
site cancel mod 2, as in R/(x^L - 1).  The bits of one translate are
`instantiate(m, shape).transpose().data[t * N + s]`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .gf2 import Gf2Matrix
from .pauli import CodeSpec, GeneratorMap, epsilon_of, verify_stabilizer


@dataclass(frozen=True)
class TorusShape:
    """Periodic lattice with lengths (L_1, ..., L_d), all >= 2."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(l < 2 for l in self.lengths):
            raise ValueError("all torus lengths must be >= 2")

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

    def sites(self):
        """All sites in row-major order."""
        return itertools.product(*map(range, self.lengths))


def shape_of(lengths) -> TorusShape:
    return TorusShape(tuple(int(l) for l in lengths))


def instantiate(m: GeneratorMap, shape: TorusShape) -> Gf2Matrix:
    """Instantiate a polynomial map as a binary matrix on the torus.

    Column (t, j) holds the coefficient vector of translate x^j of generator
    column t, in the bit layout of the module docstring.
    """
    if m.dim != shape.dim:
        raise ValueError("map dimension does not match torus dimension")
    n = shape.n_sites
    rows = m.rows * n
    cols = m.cols * n
    data = [0] * rows
    site_list = list(shape.sites())
    for r in range(m.rows):
        for t in range(m.cols):
            p = m.entries[r][t]
            if p.is_zero():
                continue
            offsets = [tuple(e) for e in p.terms]
            for j, base in enumerate(site_list):
                col = t * n + j
                for off in offsets:
                    s = shape.site_index(tuple(b + o for b, o in zip(base, off)))
                    data[r * n + s] ^= 1 << col
    return Gf2Matrix(rows, cols, data)


@dataclass(frozen=True)
class CountReport:
    """Encoded-qubit count on one torus, with the local-count bulk formula.

    bulk_term is N times the per-cell combination of qubit, generator and
    local kernel counts; c_constant is the leftover k - bulk_term coming
    from global generator products that collapse under closed boundaries.
    Either may be None when the local kernel counts could not be certified.
    """

    shape: TorusShape
    n_qubits: int
    n_generator_translates: int
    stab_rank: int
    k_encoded: int
    bulk_term: int | None
    c_constant: int | None


def _local_kernel_counts(code: CodeSpec):
    """(S_for_kernel_of_eta, S_for_kernel_of_eta_dagger) from certified bounded kernels.

    For a CSS code with X generators, eta is the dagger of the X sector map;
    for a single-sector code the sector map itself plays that role.
    Returns None when certification does not go through.
    """
    from .syzygy import bounded_kernel, certification_lengths, certify_on_torus

    if not code.css:
        return None
    if code.n_x_types > 0:
        eta = code.sigma_x.dagger()
    elif code.n_z_types > 0:
        eta = code.sigma_z
    else:
        return None
    try:
        mu = bounded_kernel(eta)
        phi = bounded_kernel(eta.dagger())
    except ValueError:
        return None
    lengths = certification_lengths(mu)
    ok_mu = certify_on_torus(mu, lengths).passed
    ok_phi = certify_on_torus(phi, lengths).passed
    if not (ok_mu and ok_phi):
        return None
    return len(mu.generators), len(phi.generators)


def count_logical(code: CodeSpec, shape: TorusShape) -> CountReport:
    """Count encoded qubits as n - rank of the instantiated stabilizer translates."""
    report = verify_stabilizer(code)
    if not report.passed:
        raise ValueError(f"code is not commuting: {report}")
    sigma = code.full_sigma()
    mat = instantiate(sigma, shape)
    n = code.q_per_site * shape.n_sites
    stab_rank = mat.rank()
    k = n - stab_rank
    bulk = None
    c = None
    counts = _local_kernel_counts(code)
    if counts is not None:
        s_mu, s_phi = counts
        if code.n_x_types > 0:
            # gauged-side formula: qubits per site vs X types, local redundant
            # X stabilizers (phi) vs local Z stabilizers (mu)
            per_cell = code.q_per_site - code.n_x_types + s_phi - s_mu
        else:
            # matter-side formula: qubits per site vs constraint types, local
            # Z redundancies (mu) vs local X symmetries (phi)
            per_cell = code.q_per_site - code.n_z_types + s_mu - s_phi
        bulk = per_cell * shape.n_sites
        c = k - bulk
    return CountReport(
        shape=shape,
        n_qubits=n,
        n_generator_translates=sigma.cols * shape.n_sites,
        stab_rank=stab_rank,
        k_encoded=k,
        bulk_term=bulk,
        c_constant=c,
    )


def logical_operator_gap(code: CodeSpec, shape: TorusShape) -> tuple[int, int, int]:
    """(dim ker instantiated epsilon, rank instantiated sigma, gap).

    The gap counts logical operators on the torus and equals twice the
    encoded-qubit count; the postcondition is checked here.
    """
    report = verify_stabilizer(code)
    if not report.passed:
        raise ValueError(f"code is not commuting: {report}")
    sigma = code.full_sigma()
    eps_t = instantiate(epsilon_of(sigma), shape)
    sig_t = instantiate(sigma, shape)
    dim_ker = eps_t.cols - eps_t.rank()
    rank_im = sig_t.rank()
    gap = dim_ker - rank_im
    k = code.q_per_site * shape.n_sites - rank_im
    if gap != 2 * k:
        raise AssertionError(f"gap {gap} != 2k = {2 * k}")
    return dim_ker, rank_im, gap
