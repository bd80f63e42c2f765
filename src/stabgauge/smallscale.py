"""Exact state-level verification of the gauging map on tiny tori.

Every Gauss-law generator is the disentangler image of one single-site
matter X: a pure X mask W_i holding matter bit i and gauge bits only.
Projecting a matter basis state onto their common +1 space leaves a state
uniform on one Gauss-law coset, the affine-subspace form of stabilizer
states (Dehaene and De Moor, quant-ph/0304125).  So a state of the
enlarged lattice is held exactly as a `CosetState`: column j is signs[j]
times one magnitude on every basis state reps[j] ^ W(u), for a gauge-only
rep, every matter pattern u and W(u) the product of the W_i over the bits
of u (`DenseLattice.coset_rows`).  A Pauli moves reps and signs columns,
and a Gauss-law projector keeps or zeroes a column.  The gauging map is
normalized by an exact power of two so that its Gram matrix is a
projector; the power is reported, never fudged.  Every state is the
gauging map or a Pauli or projector image of it, so the magnitude,
2^-((n_matter + dim K)/2) for the symmetry group K, is the lattice's.

Matrices on the matter space alone are `MatterMatrix` values, one dict
{column: numerator} per row over one power-of-two denominator, so every
check compares exactly and turns its largest deviation into a float only
to report it.  No check draws random states: `check_matrix_elements`
covers every pair of a symmetric basis state and a basis state.

On a closed torus the flat-connection fields generated by the box-local
kernel leave the wrapping (holonomy) sectors degenerate, so the span of
gauged basis states is compared against the ground space of the
constraint projectors together with the full torus kernel of the
constraint map; the holonomy sector count is reported alongside.

Every check takes one `DenseLattice` (and the operator it checks, where it
has one), which holds the qubit cap, the coset coordinates and the
gauging map, each built once.  Its qubit bits are the torus bit layout of
the `torus` module, matter types first and gauge types after them, so
matter basis state u is bit pattern u; one operator's Pauli masks are
placed by `place_column` and all Gauss-law translates are read off
`instantiate`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache

from .gauging import SymmetryModel, conjugate_by_disentangler, gauge_operator, pi_generators
from .gf2 import Gf2Basis
from .pauli import GeneratorMap, PauliColumn
from .poly import LaurentPoly
from .syzygy import KernelBasis, bounded_kernel, certification_lengths, certify_on_torus
from .torus import TorusShape, instantiate, place_column, rank_on_torus

DEFAULT_QUBIT_CAP = 20


class QubitCapExceeded(ValueError):
    """Raised when a dense lattice would exceed the configured qubit cap."""


def _sign(bits: int) -> int:
    """(-1) to the parity of bits."""
    return -1 if bits.bit_count() & 1 else 1


class DenseLattice(namedtuple("DenseLattice", ("model", "shape", "cap"))):
    """Explicit qubit indexing for a symmetry model on a finite torus.

    Matter qubit (q, site) is bit q*N + site; gauge qubit (t, site) is bit
    n_matter + t*N + site, the torus layout of the enlarged lattice.
    """

    # no __slots__: an instance __dict__ holds the cached properties

    # the benchmark tracer's build_G key still reads `perm`; a read-only
    # None until that key is mended (ROADMAP item 1)
    perm = property(lambda self: None)

    def __new__(cls, model: SymmetryModel, shape: TorusShape,
                cap: int = DEFAULT_QUBIT_CAP) -> DenseLattice:
        if shape.dim != model.dim:
            raise ValueError("shape dimension does not match model")
        self = super().__new__(cls, model, shape, cap)
        if self.n_total > cap:
            raise QubitCapExceeded(f"{self.n_total} qubits exceeds the cap of {cap}")
        return self

    @property
    def n_sites(self) -> int:
        return self.shape.n_sites

    @property
    def n_matter(self) -> int:
        return self.model.matter_q * self.n_sites

    @property
    def n_gauge(self) -> int:
        return self.model.n_constraints * self.n_sites

    @property
    def n_total(self) -> int:
        return self.n_matter + self.n_gauge

    def masks(self, op: PauliColumn) -> tuple[int, int]:
        """(xmask, zmask) of a Pauli column over lattice bits.

        The column lives on the matter lattice (matter_q types) or on the
        enlarged lattice (matter then gauge types); type ty at site s is
        bit ty * N + s either way.
        """
        if op.q not in (self.model.matter_q, self.model.matter_q + self.model.n_constraints):
            raise ValueError("operator lives on neither the matter nor the enlarged lattice")
        split = op.q * self.n_sites
        bits = place_column(op.entries(), self.shape)
        return bits & ((1 << split) - 1), bits >> split

    @cached_property
    def constraint_masks(self) -> tuple[tuple[int, int], ...]:
        """All Gauss-law generator translates as (xmask, zmask) pairs, indexed
        by the matter bit q * N + s that each one flips."""
        ops = pi_generators(self.model)
        m = GeneratorMap.from_columns(self.shape.dim, 2 * ops[0].q, [op.entries() for op in ops])
        n = self.n_total
        return tuple((v & ((1 << n) - 1), v >> n) for v in instantiate(m.dagger(), self.shape).data)

    @property
    def matter_mask(self) -> int:
        """The bits of all matter qubits."""
        return (1 << self.n_matter) - 1

    @cached_property
    def coset_rows(self) -> tuple[int, ...]:
        """W(u) for every matter pattern u: the product of the Gauss-law X
        masks of the matter bits set in u, so W(1 << i) is generator i.  Its
        matter bits are u."""
        rows = [0]
        for i, (xm, zm) in enumerate(self.constraint_masks):
            assert zm == 0 and xm & self.matter_mask == 1 << i, "Gauss-law mask is not a matter X"
            rows += [r ^ xm for r in rows]
        return tuple(rows)

    @cached_property
    def symmetry_group(self) -> tuple[int, ...]:
        """Every element of the symmetry group K, as a mask over matter
        bits: the span of the torus kernel of the dagger of the constraint map."""
        group = [0]
        for v in instantiate(self.model.constraint_map.dagger(), self.shape).nullspace():
            group += [k ^ v for k in group]
        return tuple(group)

    @property
    def symmetry_dim(self) -> int:
        """dim K, the number of independent symmetry generators."""
        return len(self.symmetry_group).bit_length() - 1

    @property
    def norm_exponent(self) -> int:
        """The gauging map is scaled by 2^(norm_exponent / 2)."""
        return self.n_matter - self.symmetry_dim

    def split_mask(self, xmask: int) -> tuple[int, int]:
        """(rep, u) of an X mask: u is its matter bits and rep = xmask ^ W(u)
        is gauge-only."""
        u = xmask & self.matter_mask
        return xmask ^ self.coset_rows[u], u

    def keeps_gauss_law(self, zmask: int) -> bool:
        """Whether Z(zmask) commutes with every Gauss-law generator: then it
        has even overlap with every W(u), and leaves each coset state uniform."""
        return not any((zmask & self.coset_rows[1 << i]).bit_count() & 1
                       for i in range(self.n_matter))

    @cached_property
    def gauging_map(self) -> CosetState:
        """`build_G` of this lattice, built once."""
        return build_G(self)


class CosetState(namedtuple("CosetState", ("reps", "signs"))):
    """States of the enlarged lattice, one per column, each uniform on one
    Gauss-law coset: column j is signs[j] (+1, -1 or 0) times the lattice's
    magnitude 2^-((n_matter + dim K)/2) on every basis state reps[j] ^ W(u),
    for W = `DenseLattice.coset_rows`, and zero everywhere else."""

    __slots__ = ()


def apply_pauli(lat: DenseLattice, state: CosetState, xmask: int, zmask: int) -> CosetState:
    """X(xmask) Z(zmask) on a coset state, Z acting first.

    With xmask = rep ^ W(ux), every column's rep moves by rep, and the sum
    over u absorbs W(ux).  A Z mask that keeps the Gauss law gives column j
    the sign of reps[j] & zmask; any other Z mask would leave the columns
    non-uniform on their cosets (ValueError).
    """
    if not lat.keeps_gauss_law(zmask):
        raise ValueError(f"Z mask {zmask:#x} anticommutes with a Gauss-law generator")
    rep, _ = lat.split_mask(xmask)
    signs = tuple(s * _sign(r & zmask) for r, s in zip(state.reps, state.signs))
    return CosetState(tuple(r ^ rep for r in state.reps), signs)


def _max_deviation(lat: DenseLattice, a: CosetState, b: CosetState) -> float:
    """Largest |a - b| over all basis states.

    A column pair on one coset deviates by |s_a - s_b| times the lattice's
    magnitude; a pair on different cosets has disjoint supports, so by the
    larger of |s_a| and |s_b| times it.
    """
    worst = max((abs(sa - sb) if ra == rb else max(abs(sa), abs(sb))
                 for ra, sa, rb, sb in zip(a.reps, a.signs, b.reps, b.signs, strict=True)),
                default=0)
    return worst * 2.0 ** (-(lat.n_matter + lat.symmetry_dim) / 2)


def coset_rank(state: CosetState) -> int:
    """Rank of a coset state's columns: columns on one coset are parallel
    and columns on different cosets orthogonal, so it counts the cosets of
    its nonzero columns."""
    return len({r for r, s in zip(state.reps, state.signs) if s})


class MatterMatrix(namedtuple("MatterMatrix", ("rows", "den_exp"))):
    """An exact matrix on the matter space: row r is the dict rows[r]
    {column: numerator}, every numerator over 2^den_exp.  Equal rows may be
    one shared dict; no row is mutated once built."""

    __slots__ = ()


def _matrix_deviation(a: MatterMatrix, b: MatterMatrix) -> float:
    """Largest |a - b| over all entries, exact up to the final float."""
    den = max(a.den_exp, b.den_exp)
    scale_a, scale_b = 1 << (den - a.den_exp), 1 << (den - b.den_exp)
    worst = 0
    for ra, rb in zip(a.rows, b.rows, strict=True):
        for col in ra.keys() | rb.keys():
            worst = max(worst, abs(ra.get(col, 0) * scale_a - rb.get(col, 0) * scale_b))
    return math.ldexp(float(worst), -den)


def _matter_masks(lat: DenseLattice, op: PauliColumn) -> tuple[int, int]:
    if op.q != lat.model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    return lat.masks(op)


def matter_operator(lat: DenseLattice, op: PauliColumn) -> MatterMatrix:
    """A matter-layout Pauli column X(x) Z(z) on the matter space: it maps
    basis state c to sign(c & z) times basis state c ^ x."""
    xm, zm = _matter_masks(lat, op)
    return MatterMatrix(tuple({r ^ xm: _sign((r ^ xm) & zm)} for r in range(1 << lat.n_matter)), 0)


def symmetrize(lat: DenseLattice, m: MatterMatrix) -> MatterMatrix:
    """P_sym @ m, for P_sym the average of the symmetry group's X products.

    Row r is the sum of m's rows r ^ k over k in K, over a denominator
    2^dim K times m's.  Rows whose indices differ by an element of K are
    therefore equal, so each is summed once per coset of K and shared.
    """
    group = lat.symmetry_group
    out: list[dict[int, int] | None] = [None] * len(m.rows)
    for r in range(len(out)):
        if out[r] is None:
            acc: dict[int, int] = {}
            for k in group:
                for col, v in m.rows[r ^ k].items():
                    acc[col] = acc.get(col, 0) + v
            for k in group:
                out[r ^ k] = acc
    return MatterMatrix(tuple(out), m.den_exp + lat.symmetry_dim)


def symmetric_projector(lat: DenseLattice) -> MatterMatrix:
    """Average of the symmetry group's X products on the matter space."""
    identity = MatterMatrix(tuple({r: 1} for r in range(1 << lat.n_matter)), 0)
    return symmetrize(lat, identity)


def gram(lat: DenseLattice, a: CosetState, b: CosetState) -> MatterMatrix:
    """a^T b exactly: two columns on one coset overlap on all 2^n_matter of
    its basis states, each with the squared magnitude 2^-(n_matter + dim K),
    and columns on different cosets nowhere."""
    by_rep: dict[int, dict[int, int]] = {}
    for k, (r, s) in enumerate(zip(b.reps, b.signs)):
        if s:
            by_rep.setdefault(r, {})[k] = s
    rows = []
    for r, s in zip(a.reps, a.signs):
        row = by_rep.get(r, {})
        rows.append(row if s == 1 else {k: s * v for k, v in row.items()})
    return MatterMatrix(tuple(rows), lat.symmetry_dim)


def build_G(lat: DenseLattice) -> CosetState:
    """State gauging map: project each matter basis state u adjoined with
    all-zero gauge qubits onto the Gauss-law subspace.

    Basis state u is pattern u of the coset with gauge-only rep u ^ W(u),
    so the projection is that coset with every amplitude 2^-n_matter.  The
    map is scaled by 2^(norm_exponent/2) = 2^((n_matter - dim K)/2) so its
    Gram matrix is exactly the symmetric-subspace projector; K is the
    symmetry group of the model on this torus.  Checks read it from
    `DenseLattice.gauging_map`.
    """
    reps = tuple(w ^ u for u, w in enumerate(lat.coset_rows))
    return CosetState(reps, (1,) * len(reps))


def _times_matter_pauli(lat: DenseLattice, state: CosetState, op: PauliColumn) -> CosetState:
    """state @ O for a matter Pauli O = X(x) Z(z): column k is the state's
    column k ^ x times sign(k & z)."""
    xm, zm = _matter_masks(lat, op)
    cols = range(len(state.reps))
    return CosetState(tuple(state.reps[k ^ xm] for k in cols),
                      tuple(state.signs[k ^ xm] * _sign(k & zm) for k in cols))


def _gauged_image(lat: DenseLattice, op: PauliColumn) -> PauliColumn:
    """The gauged image of a symmetric matter operator on the enlarged lattice
    (identity on the matter types); raises NotSymmetricError otherwise."""
    image = gauge_operator(lat.model, op)
    no_matter = (LaurentPoly.zero(op.dim),) * lat.model.matter_q
    return PauliColumn(op.dim, op.q + image.q, no_matter + image.x_block, no_matter + image.z_block)


def gauged_operator_action(lat: DenseLattice, op: PauliColumn):
    """Return a function applying the gauged image of a symmetric matter
    operator to a coset state: the disentangler-conjugated image followed by
    the Gauss-law projector.  The projector keeps every column when the
    image's Z mask keeps the Gauss law, and otherwise zeroes every column,
    as the average of a nontrivial character over the matter patterns."""
    xmask, zmask = lat.masks(conjugate_by_disentangler(lat.model, _gauged_image(lat, op)))
    kept = lat.keeps_gauss_law(zmask)

    def act(state: CosetState) -> CosetState:
        if kept:
            return apply_pauli(lat, state, xmask, zmask)
        return CosetState(state.reps, (0,) * len(state.signs))

    return act


class CheckReport(namedtuple("CheckReport", ("name", "passed", "max_deviation", "details"))):
    __slots__ = ()

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name}: {status} (max deviation {self.max_deviation:.3e}; {extras})"


def check_lemma2(lat: DenseLattice) -> CheckReport:
    """Gram matrix of the gauging map versus the symmetric-subspace projector:
    columns j and j' must share a coset exactly when j ^ j' lies in K."""
    g = lat.gauging_map
    dev = _matrix_deviation(gram(lat, g, g), symmetric_projector(lat))
    return CheckReport("gram-vs-symmetric-projector", dev == 0, dev,
                       {"norm_exponent": lat.norm_exponent, "symmetry_dim": lat.symmetry_dim})


def check_lemma3(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Intertwining identity: gauged operator after gauging equals gauging after op."""
    g = lat.gauging_map
    dev = _max_deviation(lat, _times_matter_pauli(lat, g, op), gauged_operator_action(lat, op)(g))
    return CheckReport("intertwining", dev == 0, dev, {})


def _claim1_region(lat: DenseLattice, op: PauliColumn, image: PauliColumn):
    """Minimal twirl region: the matter qubits under the operator, and the
    gauge qubits that their Gauss-law generators flip or the Z-part
    preimage of its gauged image acts on, read off the XOR masks on the
    torus: the matter bits, the mask of the gauge bits, and the (xmask,
    zmask) of each of those Gauss-law generators."""
    op_x, op_z = lat.masks(op)
    gamma_m = [i for i in range(lat.n_matter) if ((op_x | op_z) >> i) & 1]
    pis = [lat.constraint_masks[i] for i in gamma_m]
    _, gauge = lat.masks(image)
    for xm, _ in pis:
        gauge |= xm
    return gamma_m, gauge & ~lat.matter_mask, pis


def check_claim1(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Partial-trace inversion: gauging then restricting the gauge qubits to
    the all-zero state recovers a symmetric operator exactly.

    The operator is twirled over Gauss-law generators of the matter qubits
    it touches, with the all-zero projector on the adjacent gauge qubits;
    the region is small enough that no nonzero X pattern inside it is
    silent on all its gauge checks, which is verified and reported.  Each
    input is a matter basis state, so every term is one basis state with an
    integer coefficient, summed in a dict.
    """
    gamma_m, proj_mask, pis = _claim1_region(lat, op, _gauged_image(lat, op))
    nm = lat.n_matter

    # every gauge X bit of the region's Gauss-law generators lies in the
    # region, so their gauge patterns must be independent
    region_ok = len(Gf2Basis(xm >> nm for xm, _ in pis)) == len(gamma_m)
    # the twirls: the Gauss-law products over every subset of gamma_m
    patterns = [0]
    for i in gamma_m:
        patterns += [p | 1 << i for p in patterns]
    twirls = [lat.coset_rows[p] for p in patterns]

    op_x, op_z = lat.masks(op)
    terms: dict[tuple[int, int], int] = {}
    # matter basis state u with all-zero gauge qubits is bit pattern u
    for u in range(1 << nm):
        for t in twirls:
            moved = u ^ t
            sign = _sign(moved & op_z)
            moved ^= op_x
            if not moved & proj_mask:
                key = (u, moved ^ t)
                terms[key] = terms.get(key, 0) + sign
    # read off at each matter basis state with all-zero gauge qubits
    rows: list[dict[int, int]] = [{} for _ in range(1 << nm)]
    for (u, basis_state), c in terms.items():
        if c and not basis_state >> nm:
            rows[basis_state][u] = c
    dev = _matrix_deviation(MatterMatrix(tuple(rows), 0), matter_operator(lat, op))
    return CheckReport(
        name="partial-trace-inversion",
        passed=dev == 0 and region_ok,
        max_deviation=dev,
        details={"region_matter": len(gamma_m), "region_gauge": proj_mask.bit_count(),
                 "region_injective": region_ok},
    )


def check_matrix_elements(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Matrix elements of a symmetric operator between a symmetric state and an
    arbitrary state survive the gauging sandwich.

    Both sides are bilinear, so comparing proj @ O with proj @ G^T O~ G, for
    the symmetric projector proj over every symmetric basis state and every
    basis state, covers every pair of states at once.
    """
    g = lat.gauging_map
    sandwich = gram(lat, g, gauged_operator_action(lat, op)(g))
    dev = _matrix_deviation(symmetrize(lat, matter_operator(lat, op)), symmetrize(lat, sandwich))
    return CheckReport("matrix-elements", dev == 0, dev, {"states": 1 << lat.n_matter})


class GroundspaceReport(namedtuple("GroundspaceReport", (
        "passed", "ground_dim_flat", "ground_dim_local_fields", "holonomy_sectors", "g_rank",
        "contained", "local_exactness", "kernel_mu_dagger_dim", "image_eta_dagger_dim"))):
    __slots__ = ()

    def __str__(self) -> str:
        # a failure names the flags, since its dimensions may all agree
        why = "" if self.passed else (
            f"; contained={self.contained}, local_exactness={self.local_exactness}")
        return (
            f"groundspace-span: {'pass' if self.passed else 'FAIL'} "
            f"(flat-sector dim {self.ground_dim_flat}, "
            f"gauged-basis rank {self.g_rank}, "
            f"holonomy sectors {self.holonomy_sectors}, "
            f"local-field ground dim {self.ground_dim_local_fields}{why})"
        )


@lru_cache(maxsize=16)
def _certified_local_kernel(eta: GeneratorMap) -> GeneratorMap:
    """mu, the box-local kernel of eta as a map, once the columns of the
    dagger of eta are certified to generate the kernel of the dagger of mu
    away from wrapping classes.

    The windowed exactness is a property of the local maps, not of any
    torus, so it is certified once per eta, on lengths large enough to open
    a window.  A failed certificate raises ValueError and is not cached.
    """
    mu_map = bounded_kernel(eta).matrix()
    eta_dag = eta.dagger()
    eta_cols_basis = KernelBasis(
        parent=mu_map.dagger(),
        box=eta_dag.support_extent(),
        generators=[eta_dag.column(j) for j in range(eta_dag.cols)],
    )
    if not certify_on_torus(eta_cols_basis, certification_lengths(eta_cols_basis)).passed:
        raise ValueError("the local fields are not exact in windowed form")
    return mu_map


def check_groundspace_span(lat: DenseLattice) -> GroundspaceReport:
    """The gauged basis states span the flat-connection ground sector.

    The comparison sector is cut out by the Gauss-law projectors together
    with Z fields for the full torus kernel of the constraint map; with
    only the box-local kernel fields the ground space also contains the
    wrapping (holonomy) sectors, whose count is reported.  Exactness of
    the local field content is certified in its windowed form first.
    """
    eta = lat.model.constraint_map
    try:
        mu_map, local_ok = _certified_local_kernel(eta), True
    except ValueError:
        # the certificate failed; an error of the kernel search raises again
        mu_map, local_ok = bounded_kernel(eta).matrix(), False
    ker_mu_dag = lat.n_gauge - rank_on_torus(mu_map, lat.shape)
    # the flat fields are the torus kernel of eta, whose rank is the dagger's
    flat = instantiate(eta, lat.shape).nullspace()
    im_eta_dag = lat.n_gauge - len(flat)
    # the n_matter Gauss-law masks are independent pure X, each holding its
    # own matter bit, and the fields are pure Z on gauge qubits, so a ground
    # space has dimension 2^(n_gauge - rank of its fields)
    dim_flat, dim_local = 1 << im_eta_dag, 1 << ker_mu_dag

    g = lat.gauging_map
    fields = ((0, v << lat.n_matter) for v in flat)
    contained = all(lat.keeps_gauss_law(zm) and apply_pauli(lat, g, xm, zm) == g
                    for xm, zm in (*lat.constraint_masks, *fields))
    g_rank = coset_rank(g)
    passed = local_ok and contained and g_rank == dim_flat
    return GroundspaceReport(
        passed=passed,
        ground_dim_flat=dim_flat,
        ground_dim_local_fields=dim_local,
        holonomy_sectors=dim_local // dim_flat,
        g_rank=g_rank,
        contained=contained,
        local_exactness=local_ok,
        kernel_mu_dagger_dim=ker_mu_dag,
        image_eta_dagger_dim=im_eta_dag,
    )
