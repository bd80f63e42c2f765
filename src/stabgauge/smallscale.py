"""Dense state-vector verification of the gauging map on tiny tori.

Everything here is real arithmetic: X products permute computational
basis states and Z products flip signs, so all operators are real
matrices.  The state gauging map is built from the Gauss-law projectors
and normalized by an exact power of two so that its Gram matrix is a
projector; the power is reported, never fudged.

On a closed torus the flat-connection fields generated by the box-local
kernel leave the wrapping (holonomy) sectors degenerate, so the span of
gauged basis states is compared against the ground space of the
constraint projectors together with the full torus kernel of the
constraint map; the holonomy sector count is reported alongside.

Every Gauss-law generator is the disentangler image of one single-site
matter X: a pure X mask W_i holding matter bit i and gauge bits only.  So
a state of the enlarged lattice is held as a `Block`, one Gauss-law coset
per column: column j has amplitude vals[j, u] on basis state
reps[j] ^ W(u), for a gauge-only rep and W(u) the product of the W_i over
the matter bits of u (`DenseLattice.coset_rows`).  Paulis, projectors and
products act on that form without a row lookup, and each amplitude gets
the same float operations as over all 2^n basis states.  The qubit cap
counts all matter and gauge qubits; masks are int64, so no lattice
exceeds 63 qubits.

Every check takes one `DenseLattice` (and the operator it checks, where it
has one), so a run builds the lattice, its coset coordinates and its
gauging map once; the qubit cap and the qubit permutation are set on the
lattice only.  Matrices on the matter space alone are acted on by
`apply_pauli`.

`check_matrix_elements` compares every matrix element between a symmetric
basis state and a basis state, which covers every pair of states, so no
check draws random states.

Raw qubit coordinates are the torus bit layout of the `torus` module,
matter types first and gauge types after them; one operator's Pauli masks
are placed by `place_column` and all Gauss-law translates are read off
`instantiate`, each split into its X and Z blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gauging import (
    SymmetryModel,
    conjugate_by_disentangler,
    gauge_operator,
    pi_generators,
)
from .gf2 import Gf2Basis
from .pauli import GeneratorMap, PauliColumn
from .poly import LaurentPoly
from .syzygy import KernelBasis, bounded_kernel, certification_lengths, certify_on_torus
from .torus import TorusShape, instantiate, place_column, rank_on_torus

DEFAULT_QUBIT_CAP = 20
MASK_QUBIT_LIMIT = 63
CONSTRUCTION_TOL = 1e-12
DERIVED_TOL = 1e-10


class QubitCapExceeded(ValueError):
    """Raised when a dense lattice would exceed the configured qubit cap."""


@dataclass
class DenseLattice:
    """Explicit qubit indexing for a symmetry model on a finite torus.

    Matter qubit (q, site) gets raw bit q*N + site; gauge qubit (t, site)
    gets raw bit n_matter + t*N + site.  An optional permutation relabels
    all bits, used to confirm reports do not depend on the basis ordering.
    """

    model: SymmetryModel
    shape: TorusShape
    cap: int = DEFAULT_QUBIT_CAP
    perm: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.shape.dim != self.model.dim:
            raise ValueError("shape dimension does not match model")
        n = self.n_total
        if n > self.cap:
            raise QubitCapExceeded(
                f"{n} qubits exceeds the cap of {self.cap}"
            )
        if n > MASK_QUBIT_LIMIT:
            raise QubitCapExceeded(
                f"{n} qubits exceeds the {MASK_QUBIT_LIMIT}-qubit limit of int64 bit masks"
            )
        if self.perm is not None and sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of all qubits")

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

    def lift_mask(self, pattern: int | np.ndarray) -> int | np.ndarray:
        """Lift a bitmask over raw coordinates (matter first, then gauge) to lattice
        bits; an integer array of bitmasks is lifted elementwise."""
        if self.perm is None:
            return pattern
        out = pattern & 0
        for bit, target in enumerate(self.perm):
            out |= ((pattern >> bit) & 1) << target
        return out

    def raw_masks(self, op: PauliColumn) -> tuple[int, int]:
        """(xmask, zmask) of a Pauli column over raw coordinates.

        The column lives on the matter lattice (matter_q types) or on the
        enlarged lattice (matter then gauge types); type ty at site s is raw
        bit ty * N + s either way.
        """
        if op.q not in (self.model.matter_q, self.model.matter_q + self.model.n_constraints):
            raise ValueError("operator lives on neither the matter nor the enlarged lattice")
        split = op.q * self.n_sites
        bits = place_column(op.entries(), self.shape)
        return bits & ((1 << split) - 1), bits >> split

    def masks(self, op: PauliColumn) -> tuple[int, int]:
        """(xmask, zmask) of a Pauli column over lattice bits."""
        xm, zm = self.raw_masks(op)
        return self.lift_mask(xm), self.lift_mask(zm)

    @cached_property
    def _raw_gauss_masks(self) -> list[tuple[int, int]]:
        """Raw masks of the Gauss-law generator translates, indexed by the
        raw matter bit q * N + s that each one flips."""
        ops = pi_generators(self.model)
        m = GeneratorMap.from_columns(self.shape.dim, 2 * ops[0].q, [op.entries() for op in ops])
        split = ops[0].q * self.n_sites
        cols = instantiate(m.dagger(), self.shape).data
        return [(v & ((1 << split) - 1), v >> split) for v in cols]

    def constraint_masks(self) -> list[tuple[int, int]]:
        """All Gauss-law generator translates as (xmask, zmask) pairs."""
        return [(self.lift_mask(xm), self.lift_mask(zm)) for xm, zm in self._raw_gauss_masks]

    @cached_property
    def coset_rows(self) -> np.ndarray:
        """W(u) for every matter pattern u in raw bit order: the product of
        the Gauss-law X masks of the matter bits set in u.  A `Block` column
        with coset rep r holds its amplitude at u on basis state r ^ W(u)."""
        rows = np.zeros(1, dtype=np.int64)
        matter = self.lift_mask((1 << self.n_matter) - 1)
        for i, (xm, zm) in enumerate(self.constraint_masks()):
            assert zm == 0 and xm & matter == self.lift_mask(1 << i), "Gauss-law mask is not a matter X"
            rows = np.concatenate([rows, rows ^ xm])
        return rows

    def split_mask(self, xmask: int) -> tuple[int, int]:
        """(rep, u) of an X mask over lattice bits: u holds its matter bits in
        raw order and rep = xmask ^ W(u) is gauge-only."""
        u = sum(1 << i for i in range(self.n_matter) if xmask & self.lift_mask(1 << i))
        return xmask ^ int(self.coset_rows[u]), u

    @cached_property
    def gauging_map(self) -> tuple[Block, GaugeMapInfo]:
        """`build_G` of this lattice, built once and read-only."""
        g, info = build_G(self)
        g.reps.flags.writeable = False
        g.vals.flags.writeable = False
        return g, info


@dataclass(frozen=True)
class Block:
    """States of the enlarged lattice, one Gauss-law coset per column:
    column j has amplitude vals[j, u] on basis state reps[j] ^ W(u), for
    W = `DenseLattice.coset_rows`, and zero everywhere else."""

    reps: np.ndarray
    vals: np.ndarray


def _parity_signs(bits: np.ndarray) -> np.ndarray:
    return 1.0 - 2.0 * (np.bitwise_count(bits) & 1)


def pauli_gather(xmask: int, zmask: int,
                 rows: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(signs, gather) of X(xmask) Z(zmask) on a sorted row set: entry i of
    the image is entry gather[i] of the input, times signs[i].

    Either is None when its mask is 0; xmask must map the row set onto
    itself (ValueError otherwise).
    """
    moved, gather = rows, None
    if xmask:
        moved = rows ^ xmask
        gather = np.searchsorted(rows, moved)
        if not np.array_equal(rows.take(gather, mode="clip"), moved):
            raise ValueError(f"X mask {xmask:#x} leaves the row set")
    signs = _parity_signs(moved & zmask) if zmask else None
    return signs, gather


def apply_pauli(vec: np.ndarray, xmask: int, zmask: int, rows: np.ndarray) -> np.ndarray:
    """Apply X(xmask) Z(zmask): sign from zmask overlap, then flip xmask bits.

    vec is one state or a (len(rows), m) block of states, acted on column by
    column; entry i is the amplitude of basis state rows[i], for a sorted
    row set that xmask must map onto itself (ValueError otherwise).  The
    input itself when both masks are 0, a fresh array otherwise.
    """
    signs, gather = pauli_gather(xmask, zmask, rows)
    out = vec if gather is None else vec[gather]
    if signs is not None:
        signs = signs.reshape((len(signs),) + (1,) * (vec.ndim - 1))
        out = out * signs if out is vec else np.multiply(out, signs, out=out)
    return out


def _average_over_flips(vals: np.ndarray, flips) -> np.ndarray:
    """Product of the projectors (1 + X_f)/2 over X flips f of the last
    axis's index u: each step is 0.5 * (vals + vals[..., u ^ f]), computed
    in place on the fresh gathered copy."""
    u = np.arange(vals.shape[-1])
    for f in flips:
        moved = vals[..., u ^ f]
        moved += vals
        moved *= 0.5
        vals = moved
    return vals


def pauli_on_block(lat: DenseLattice, block: Block, xmask: int, zmask: int) -> Block:
    """X(xmask) Z(zmask) on a block, with `apply_pauli`'s sign convention.

    With xmask = rep ^ W(ux), every column's rep moves by rep and its
    matter pattern u by ux; the sign at the moved basis state factors into
    one per column (from reps & zmask) and one per u (from W(u) & zmask).
    The input itself when both masks are 0, fresh arrays otherwise.
    """
    rep, ux = lat.split_mask(xmask)
    reps, vals = block.reps, block.vals
    if zmask:
        vals = vals * np.outer(_parity_signs(reps & zmask), _parity_signs(lat.coset_rows & zmask))
    if ux:
        vals = vals[:, np.arange(vals.shape[1]) ^ ux]
    return Block(reps ^ rep if rep else reps, vals)


def _project_gauss_law(lat: DenseLattice, vals: np.ndarray) -> np.ndarray:
    """The Gauss-law projectors on block values: X(W_i) flips bit i of u."""
    return _average_over_flips(vals, [1 << i for i in range(lat.n_matter)])


def add_blocks(a: Block, b: Block) -> Block:
    """Column-by-column sum of two blocks over the same cosets; ValueError
    when a column pair lies in different cosets."""
    if not np.array_equal(a.reps, b.reps):
        raise ValueError("blocks in different Gauss-law cosets cannot be summed")
    return Block(a.reps, a.vals + b.vals)


def block_gram(a: Block, b: Block) -> np.ndarray:
    """a^T b: columns in different cosets have disjoint supports."""
    out = a.vals @ b.vals.T
    out[a.reps[:, None] != b.reps[None, :]] = 0.0
    return out


def _max_deviation(a: Block, b: Block) -> float:
    """Largest |a - b| over all basis states: a column pair in different
    cosets has disjoint supports, so it deviates by its larger magnitude."""
    same = a.reps == b.reps
    apart = np.maximum(np.max(np.abs(a.vals), axis=1), np.max(np.abs(b.vals), axis=1))
    diff = np.max(np.abs(a.vals[same] - b.vals[same]), axis=1)
    return float(max(np.max(diff, initial=0.0), np.max(apart[~same], initial=0.0)))


def block_rank(block: Block) -> int:
    """Rank of a block by float SVD, threshold 1e-9 * max(1, s_max).

    Columns in different cosets are orthogonal, so the singular values are
    those of the per-coset blocks, taken in one batched SVD; every coset
    must hold equally many columns, as the cosets of `build_G` do.
    """
    _, counts = np.unique(block.reps, return_counts=True)
    if counts.min() != counts.max():
        raise ValueError("cosets hold unequal column counts")
    order = np.argsort(block.reps, kind="stable")
    stacked = block.vals[order].reshape(len(counts), counts[0], -1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals > 1e-9 * max(1.0, np.max(svals))))


@dataclass(frozen=True)
class GaugeMapInfo:
    norm_exponent: int
    symmetry_dim: int


def _matter_basis_states(lat: DenseLattice) -> Block:
    """Each matter basis state u adjoined with all-zero gauge qubits: the
    basis state lift(u), at pattern u of the coset with rep lift(u) ^ W(u)."""
    dim_m = 1 << lat.n_matter
    return Block(lat.coset_rows ^ lat.lift_mask(np.arange(dim_m)), np.eye(dim_m))


def build_G(lat: DenseLattice) -> tuple[Block, GaugeMapInfo]:
    """Dense state gauging map: project each matter basis state adjoined with
    all-zero gauge qubits onto the Gauss-law subspace.

    It is scaled by 2^((NQ - dim K)/2) so its Gram matrix is exactly the
    symmetric-subspace projector; K is the symmetry group of the model on
    this torus.  Checks read it from `DenseLattice.gauging_map`.
    """
    eta = lat.model.constraint_map
    # K is the torus kernel of the dagger of eta, whose rank is eta's
    dim_k = eta.rows * lat.n_sites - rank_on_torus(eta, lat.shape)
    basis = _matter_basis_states(lat)
    vals = _project_gauss_law(lat, basis.vals)
    exponent = lat.n_matter - dim_k
    vals *= 2.0 ** (exponent / 2.0)
    return Block(basis.reps, vals), GaugeMapInfo(exponent, dim_k)


def matter_operator_dense(lat: DenseLattice, op: PauliColumn) -> np.ndarray:
    """Dense matrix of a matter-layout Pauli column on the matter space."""
    if op.q != lat.model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    dim = 1 << lat.n_matter
    return apply_pauli(np.eye(dim), *lat.raw_masks(op), np.arange(dim))


def _times_matter_operator(block: Block, mat: np.ndarray) -> Block:
    """block @ mat for a signed permutation matrix mat, a matter Pauli:
    column k is the block's column src[k] times mat[src[k], k]."""
    src = np.argmax(mat != 0, axis=0)
    signs = mat[src, np.arange(len(src))]
    return Block(block.reps[src], block.vals[src] * signs[:, None])


def symmetric_projector(lat: DenseLattice) -> np.ndarray:
    """Average of the symmetry group's X products on the matter space.

    The group is spanned by the torus kernel of the dagger of the
    constraint map, as masks over raw matter coordinates; the product of
    (1 + X_b)/2 over a basis of it is the group average.
    """
    eta_dag_t = instantiate(lat.model.constraint_map.dagger(), lat.shape)
    return _average_over_flips(np.eye(1 << lat.n_matter), eta_dag_t.nullspace())


def _gauged_image(lat: DenseLattice, op: PauliColumn) -> PauliColumn:
    """The gauged image of a symmetric matter operator on the enlarged lattice
    (identity on the matter types); raises NotSymmetricError otherwise."""
    image = gauge_operator(lat.model, op)
    no_matter = (LaurentPoly.zero(op.dim),) * lat.model.matter_q
    return PauliColumn(op.dim, op.q + image.q, no_matter + image.x_block, no_matter + image.z_block)


def gauged_operator_action(lat: DenseLattice, op: PauliColumn):
    """Return a function applying the gauged image of a symmetric matter
    operator to a block: the disentangler-conjugated image followed by the
    Gauss-law projector."""
    image = lat.masks(conjugate_by_disentangler(lat.model, _gauged_image(lat, op)))

    def act(block: Block) -> Block:
        moved = pauli_on_block(lat, block, *image)
        return Block(moved.reps, _project_gauss_law(lat, moved.vals))

    return act


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_deviation: float
    details: dict

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name}: {status} (max deviation {self.max_deviation:.3e}; {extras})"


def check_lemma2(lat: DenseLattice) -> CheckReport:
    """Gram matrix of the gauging map versus the symmetric-subspace projector."""
    g, info = lat.gauging_map
    dev = float(np.max(np.abs(block_gram(g, g) - symmetric_projector(lat))))
    return CheckReport(
        name="gram-vs-symmetric-projector",
        passed=dev <= DERIVED_TOL,
        max_deviation=dev,
        details={"norm_exponent": info.norm_exponent, "symmetry_dim": info.symmetry_dim},
    )


def check_lemma3(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Intertwining identity: gauged operator after gauging equals gauging after op."""
    g, _ = lat.gauging_map
    dev = _max_deviation(_times_matter_operator(g, matter_operator_dense(lat, op)),
                         gauged_operator_action(lat, op)(g))
    return CheckReport(
        name="intertwining",
        passed=dev <= DERIVED_TOL,
        max_deviation=dev,
        details={},
    )


def _claim1_region(lat: DenseLattice, op: PauliColumn, image: PauliColumn):
    """Minimal twirl region: the matter qubits under the operator, and the
    gauge qubits that their Gauss-law generators flip or the Z-part
    preimage of its gauged image acts on, read off the XOR masks on the
    torus.  Also returns the raw (xmask, zmask) of each of those Gauss-law
    generators."""
    xm_raw, zm_raw = lat.raw_masks(op)
    support = xm_raw | zm_raw
    gamma_m = [raw for raw in range(lat.n_matter) if (support >> raw) & 1]
    pi_raw = [lat._raw_gauss_masks[raw] for raw in gamma_m]
    _, gauge = lat.raw_masks(image)
    for xm, _ in pi_raw:
        gauge |= xm
    gauge >>= lat.n_matter
    gamma_g = [g for g in range(lat.n_gauge) if (gauge >> g) & 1]
    return gamma_m, gamma_g, pi_raw


def check_claim1(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Partial-trace inversion: gauging then restricting the gauge qubits to
    the all-zero state recovers a symmetric operator exactly.

    The operator is twirled over Gauss-law generators of the matter qubits
    it touches, with the all-zero projector on the adjacent gauge qubits;
    the region is small enough that no nonzero X pattern inside it is
    silent on all its gauge checks, which is verified and reported.
    """
    gamma_m, gamma_g, pi_raw = _claim1_region(lat, op, _gauged_image(lat, op))
    nm = lat.n_matter

    # every gauge X bit of the region's Gauss-law generators lies in the
    # region, so their gauge patterns must be independent
    region_ok = len(Gf2Basis(xm >> nm for xm, _ in pi_raw)) == len(gamma_m)
    # the twirl's matter patterns: every subset of gamma_m, in binary order
    patterns = [0]
    for raw in gamma_m:
        patterns += [p | 1 << raw for p in patterns]

    proj_mask = lat.lift_mask(sum(1 << (nm + g_raw) for g_raw in gamma_g))

    def zero_on(block: Block, mask: int) -> np.ndarray:
        # block values with every basis state outside the all-zero state of mask cleared
        rows = block.reps[:, None] ^ lat.coset_rows[None, :]
        return np.where((rows & mask) == 0, block.vals, 0.0)

    op_x, op_z = lat.masks(op)
    basis = _matter_basis_states(lat)
    out = None
    for pattern in patterns:
        # the product of the Gauss-law generators of the pattern's matter bits
        twirl = int(lat.coset_rows[pattern])
        term = pauli_on_block(lat, basis, twirl, 0)
        term = pauli_on_block(lat, term, op_x, op_z)
        term = pauli_on_block(lat, Block(term.reps, zero_on(term, proj_mask)), twirl, 0)
        out = term if out is None else add_blocks(out, term)
    # read off at each matter basis state u with all-zero gauge qubits
    recovered = zero_on(out, lat.lift_mask(((1 << lat.n_gauge) - 1) << nm)).T
    expected = matter_operator_dense(lat, op)
    dev = float(np.max(np.abs(recovered - expected)))
    return CheckReport(
        name="partial-trace-inversion",
        passed=dev <= DERIVED_TOL and region_ok,
        max_deviation=dev,
        details={"region_matter": len(gamma_m), "region_gauge": len(gamma_g),
                 "region_injective": region_ok},
    )


def check_matrix_elements(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Matrix elements of a symmetric operator between a symmetric state and an
    arbitrary state survive the gauging sandwich.

    Both sides are bilinear, so comparing proj @ O with proj @ G^T O~ G, for
    the symmetric projector proj over every symmetric basis state and every
    basis state, covers every pair of states at once.
    """
    g, _ = lat.gauging_map
    proj = symmetric_projector(lat)
    sandwich = block_gram(g, gauged_operator_action(lat, op)(g))
    diff = proj @ matter_operator_dense(lat, op)
    diff -= proj @ sandwich
    dev = float(np.max(np.abs(diff, out=diff)))
    return CheckReport("matrix-elements", dev <= DERIVED_TOL, dev, {"states": len(proj)})


@dataclass
class GroundspaceReport:
    passed: bool
    ground_dim_flat: int
    ground_dim_local_fields: int
    holonomy_sectors: int
    g_rank: int
    contained: bool
    local_exactness: bool
    kernel_mu_dagger_dim: int
    image_eta_dagger_dim: int

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"groundspace-span: {status} (flat-sector dim {self.ground_dim_flat}, "
            f"gauged-basis rank {self.g_rank}, "
            f"holonomy sectors {self.holonomy_sectors}, "
            f"local-field ground dim {self.ground_dim_local_fields})"
        )


def check_groundspace_span(lat: DenseLattice) -> GroundspaceReport:
    """The gauged basis states span the flat-connection ground sector.

    The comparison sector is cut out by the Gauss-law projectors together
    with Z fields for the full torus kernel of the constraint map; with
    only the box-local kernel fields the ground space also contains the
    wrapping (holonomy) sectors, whose count is reported.  Exactness of
    the local field content is certified in its windowed form first.
    """
    model, shape = lat.model, lat.shape
    n = lat.n_total
    nm = lat.n_matter
    eta = model.constraint_map

    mu = bounded_kernel(eta)
    mu_map = mu.matrix()
    # windowed exactness: the columns of the dagger of eta generate the
    # kernel of the dagger of mu away from wrapping classes
    eta_dag = eta.dagger()
    eta_cols_basis = KernelBasis(
        parent=mu_map.dagger(),
        box=eta_dag.support_extent(),
        generators=[eta_dag.column(j) for j in range(eta_dag.cols)],
    )
    # rows of the dagger's instantiation are the translates' gauge patterns;
    # with no local kernel they are none, so the domain size is not read off it
    mu_dag_t = instantiate(mu_map.dagger(), shape)
    ker_mu_dag = lat.n_gauge - rank_on_torus(mu_map, shape)
    # the flat fields are the torus kernel of eta, whose rank is the dagger's
    flat = instantiate(eta, shape).nullspace()
    im_eta_dag = lat.n_gauge - len(flat)
    # the windowed exactness is a property of the local maps, not of this
    # particular torus, so certify it on lengths large enough to open a window
    try:
        local_ok = certify_on_torus(eta_cols_basis, certification_lengths(eta_cols_basis)).passed
    except ValueError:
        local_ok = False

    masks = lat.constraint_masks()

    def gauge_zmask(pattern: int) -> int:
        # raw gauge coordinates follow the nm raw matter coordinates
        return lat.lift_mask(pattern << nm)

    flat_masks = [(0, gauge_zmask(v)) for v in flat]
    mu_translate_masks = [(0, gauge_zmask(v)) for v in mu_dag_t.data]

    def group_rank(pairs: list[tuple[int, int]]) -> int:
        return len(Gf2Basis(xm | (zm << n) for xm, zm in pairs))

    rank_flat = group_rank(masks + flat_masks)
    rank_local = group_rank(masks + mu_translate_masks)
    dim_flat = 1 << (n - rank_flat)
    dim_local = 1 << (n - rank_local)

    g, _ = lat.gauging_map
    contained = all(_max_deviation(pauli_on_block(lat, g, xm, zm), g) <= DERIVED_TOL
                    for xm, zm in masks + flat_masks)
    g_rank = block_rank(g)
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
