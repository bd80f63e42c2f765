"""Exact verification of the gauging map's lemmas on a finite torus.

Every Gauss-law generator is the disentangler image of one single-site
matter X: a pure X mask W_i holding matter bit i and the gauge bits A e_i,
row i of the instantiated constraint map eta, for A the linear map from
matter patterns to gauge patterns that these rows define.  Projecting
matter basis state u onto their common +1 space leaves a state uniform
on one Gauss-law coset, the coset of basis states r ^ W(v) for the
gauge-only rep r = A u and every matter pattern v, where W(v) is the
product of the W_i over the bits of v.  The gauging map G and
every Pauli or projector image of it is therefore a stabilizer state in
affine form (Dehaene and De Moor, quant-ph/0304125), held as a
`CosetState` (rep, sigma, sign): column u lies on the coset of rep ^ A u
with sign * (-1)^(u . sigma) times one magnitude, 2^-((n_matter + dim K)/2)
for the symmetry group K.  G is (0, 0, 1): it is scaled by an exact power
of two so that its Gram matrix is a projector; the power is reported,
never fudged.  Every operator here is real, so a Pauli moves rep and
sigma and flips the sign by parities, and no phase tableau is needed
(Aaronson and Gottesman, quant-ph/0406196).

Each check decides its report from rank and span facts on the n_matter
Gauss-law masks, read off one cached echelon of them (`gf2.Gf2Basis` on
Python ints): ker A, which is K, the left kernel of `instantiate(eta)`
and so the torus kernel of its dagger; A(K); the masks' gauge parts
against eta's row space; and, from the region's masks alone, the kernel
of A on a twirl region.  Its largest deviation is the one an entry-by-entry
comparison of the states or matrices gives, read off in closed form, so no
check enumerates matter patterns, twirls or fields, and no qubit count is
refused: the lattice size is bounded by memory.  `tests/naive_oracle.py`
keeps the enumerated implementation as the oracle these reports must
equal, repr for repr.

On a closed torus the flat-connection fields generated by the box-local
kernel leave the wrapping (holonomy) sectors degenerate, so the span of
gauged basis states is compared against the ground space of the
constraint projectors together with the full torus kernel of the
constraint map; the holonomy sector count is reported alongside.

Every check takes one `DenseLattice` (and the operator it checks, where it
has one).  Its qubit bits are the torus bit layout of the `torus` module,
matter types first and gauge types after them, so matter basis state u is
bit pattern u; one operator's Pauli masks are placed by `place_column`, and
all Gauss-law masks are the rows of `instantiate(eta)`, instantiated and
eliminated once per lattice.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .gauging import SymmetryModel, conjugate_by_disentangler, gauge_operator
from .gf2 import Gf2Basis
from .pauli import PauliColumn
from .poly import LaurentPoly
from .syzygy import KernelBasis, bounded_kernel, certification_lengths, certify_on_torus
from .torus import TorusShape, instantiate, place_column, rank_on_torus

def _sign(bits: int) -> int:
    """(-1) to the parity of bits."""
    return -1 if bits.bit_count() & 1 else 1


class DenseLattice(namedtuple("DenseLattice", ("model", "shape"))):
    """Explicit qubit indexing for a symmetry model on a finite torus.

    Matter qubit (q, site) is bit q*N + site; gauge qubit (t, site) is bit
    n_matter + t*N + site, the torus layout of the enlarged lattice.  No
    check enumerates states, so no qubit count is refused: the lattice size
    is bounded by memory, as for `count_logical`.
    """

    # no __slots__: an instance __dict__ holds the cached properties

    # the benchmark tracer's build_G key still reads `cap` and `perm`;
    # read-only None until that key is mended (ROADMAP item 1)
    cap = perm = property(lambda self: None)

    def __new__(cls, model: SymmetryModel, shape: TorusShape) -> DenseLattice:
        if shape.dim != model.dim:
            raise ValueError("shape dimension does not match model")
        return super().__new__(cls, model, shape)

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
    def eta_rows(self) -> list[int]:
        """The rows of `instantiate(eta, shape)`, over gauge bits: row q * N + s
        holds the constraints that matter qubit (q, s) enters."""
        return instantiate(self.model.constraint_map, self.shape).data

    @cached_property
    def constraint_masks(self) -> tuple[tuple[int, int], ...]:
        """All Gauss-law generator translates as (xmask, zmask) pairs, indexed
        by the matter bit i = q * N + s that each one flips: the disentangler
        image of matter X_i is X on bit i and on the gauge bits of row i of
        `eta_rows`."""
        n = self.n_matter
        return tuple((1 << i | row << n, 0) for i, row in enumerate(self.eta_rows))

    @property
    def matter_mask(self) -> int:
        """The bits of all matter qubits."""
        return (1 << self.n_matter) - 1

    def coset_rep(self, xmask: int) -> int:
        """The gauge-only rep xmask ^ W(u) of an X mask's coset, for u its
        matter bits; for a matter pattern u it is A u."""
        masks, u = self.constraint_masks, xmask & self.matter_mask
        while u:
            xmask ^= masks[(u & -u).bit_length() - 1][0]
            u &= u - 1
        return xmask

    @cached_property
    def gauss_echelon(self) -> Gf2Basis:
        """The one elimination of the Gauss-law rows 1 << i | row_i << n_matter
        of `eta_rows`.  Each holds its own matter bit below every gauge bit,
        so the rows with a matter pivot, having no gauge part, span ker A."""
        n = self.n_matter
        return Gf2Basis(1 << i | row << n for i, row in enumerate(self.eta_rows))

    @cached_property
    def gauss_kernel(self) -> list[int]:
        """A basis of ker A, as masks over matter bits."""
        return [r for r in self.gauss_echelon.rows[1:self.n_matter + 1] if r]

    @property
    def symmetry_basis(self) -> list[int]:
        """A basis of the symmetry group K over matter bits: the torus kernel
        of eta-dagger, the left kernel of `instantiate(eta)`, so ker A."""
        return self.gauss_kernel

    @property
    def symmetry_dim(self) -> int:
        """dim K, the number of independent symmetry generators."""
        return len(self.symmetry_basis)

    @property
    def norm_exponent(self) -> int:
        """The gauging map is scaled by 2^(norm_exponent / 2)."""
        return self.n_matter - self.symmetry_dim

    def keeps_gauss_law(self, zmask: int) -> bool:
        """Whether Z(zmask) commutes with every Gauss-law generator: then it
        has even overlap with every W(u), and leaves each coset state uniform."""
        return not any((zmask & xm).bit_count() & 1 for xm, _ in self.constraint_masks)


class CosetState(namedtuple("CosetState", ("rep", "sigma", "sign"))):
    """A state of the enlarged lattice with one column per matter pattern u:
    column u is sign * (-1)^(u . sigma) (sign +1, -1 or 0) times the
    lattice's magnitude 2^-((n_matter + dim K)/2) on every basis state of
    the coset with gauge-only rep rep ^ A u, and zero everywhere else."""

    __slots__ = ()


def apply_pauli(lat: DenseLattice, state: CosetState, xmask: int, zmask: int) -> CosetState:
    """X(xmask) Z(zmask) on a coset state, Z acting first.

    The X mask moves every column's rep by its coset rep.  A Z mask that
    keeps the Gauss law has matter part A^T of its gauge part, so column u
    gains the sign (-1)^((rep ^ A u) . z) = (-1)^(rep . z + u . z_matter);
    any other Z mask would leave the columns non-uniform on their cosets
    (ValueError).
    """
    if not lat.keeps_gauss_law(zmask):
        raise ValueError(f"Z mask {zmask:#x} anticommutes with a Gauss-law generator")
    return CosetState(state.rep ^ lat.coset_rep(xmask), state.sigma ^ (zmask & lat.matter_mask),
                      state.sign * _sign(state.rep & zmask))


def _max_deviation(lat: DenseLattice, a: CosetState, b: CosetState) -> float:
    """Largest |a - b| over all basis states.

    Column u of a and of b lie on one coset for every u or for none, as
    rep_a ^ A u and rep_b ^ A u differ by rep_a ^ rep_b alone.  On one coset two nonzero columns
    differ by |s_a - s_b| times the lattice's magnitude, and, when the
    sigmas differ, some column pair has opposite signs and differs by 2;
    on different cosets, or with a zero side, they deviate by the larger
    of |s_a| and |s_b|.
    """
    if a.sign and b.sign and a.rep == b.rep:
        worst = abs(a.sign - b.sign) if a.sigma == b.sigma else 2
    else:
        worst = max(abs(a.sign), abs(b.sign))
    return worst * 2.0 ** (-(lat.n_matter + lat.symmetry_dim) / 2)


def build_G(lat: DenseLattice) -> CosetState:
    """State gauging map: project each matter basis state u adjoined with
    all-zero gauge qubits onto the Gauss-law subspace.

    Basis state u is pattern u of the coset with gauge-only rep A u, so the
    projection is that coset with every amplitude 2^-n_matter.  The map is
    scaled by 2^(norm_exponent/2) = 2^((n_matter - dim K)/2) so its Gram
    matrix is exactly the symmetric-subspace projector; K is the symmetry
    group of the model on this torus.  It is the same three ints on every
    lattice; `gauged_state` starts from it.
    """
    return CosetState(0, 0, 1)


def _matter_masks(lat: DenseLattice, op: PauliColumn) -> tuple[int, int]:
    if op.q != lat.model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    return lat.masks(op)


def _gauged_image(lat: DenseLattice, op: PauliColumn) -> PauliColumn:
    """The gauged image of a symmetric matter operator on the enlarged lattice
    (identity on the matter types); raises NotSymmetricError otherwise."""
    image = gauge_operator(lat.model, op)
    no_matter = (LaurentPoly.zero(op.dim),) * lat.model.matter_q
    return PauliColumn(op.dim, op.q + image.q, no_matter + image.x_block, no_matter + image.z_block)


def gauged_state(lat: DenseLattice, op: PauliColumn) -> CosetState:
    """The gauged image of a symmetric matter operator applied to G: the
    disentangler-conjugated image followed by the Gauss-law projector.  The
    projector keeps every column when the image's Z mask keeps the Gauss
    law, and otherwise zeroes every column, as the average of a nontrivial
    character over the matter patterns."""
    xmask, zmask = lat.masks(conjugate_by_disentangler(lat.model, _gauged_image(lat, op)))
    g = build_G(lat)
    if lat.keeps_gauss_law(zmask):
        return apply_pauli(lat, g, xmask, zmask)
    return g._replace(sign=0)


class CheckReport(namedtuple("CheckReport", ("name", "passed", "max_deviation", "details"))):
    __slots__ = ()

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.name}: {status} (max deviation {self.max_deviation:.3e}; {extras})"


def check_lemma2(lat: DenseLattice) -> CheckReport:
    """Gram matrix of the gauging map versus the symmetric-subspace projector.

    Columns j and j' of G share a coset exactly when j ^ j' lies in ker A,
    with overlap 2^-dim K, and the projector's entry (j, j') is 2^-dim K
    exactly when j ^ j' lies in K: the two agree iff ker A = K, and
    otherwise differ by 2^-dim K somewhere.
    """
    symmetries, kernel = lat.symmetry_basis, lat.gauss_kernel
    same = len(symmetries) == len(kernel) and not any(lat.coset_rep(v) for v in symmetries)
    dev = 0.0 if same else math.ldexp(1.0, -len(symmetries))
    return CheckReport("gram-vs-symmetric-projector", dev == 0, dev,
                       {"norm_exponent": lat.norm_exponent, "symmetry_dim": lat.symmetry_dim})


def check_lemma3(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Intertwining identity: gauged operator after gauging equals gauging
    after op.  G O for O = X(x) Z(z) has column u equal to G's column u ^ x
    times (-1)^(u . z), the coset state (A x, z, 1)."""
    x, z = _matter_masks(lat, op)
    dev = _max_deviation(lat, CosetState(lat.coset_rep(x), z, 1), gauged_state(lat, op))
    return CheckReport("intertwining", dev == 0, dev, {})


def _claim1_region(lat: DenseLattice, op: PauliColumn, image: PauliColumn):
    """Minimal twirl region: the matter qubits under the operator, and the
    gauge qubits that their Gauss-law generators flip or the Z-part
    preimage of its gauged image acts on, read off the XOR masks on the
    torus: the matter bits and the mask of the gauge bits."""
    op_x, op_z = lat.masks(op)
    gamma_m = [i for i in range(lat.n_matter) if ((op_x | op_z) >> i) & 1]
    _, gauge = lat.masks(image)
    for i in gamma_m:
        gauge |= lat.constraint_masks[i][0]
    return gamma_m, gauge & ~lat.matter_mask


def check_claim1(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Partial-trace inversion: gauging then restricting the gauge qubits to
    the all-zero state recovers a symmetric operator exactly.

    The operator X(x) Z(z) is twirled over the products W(p) of the
    Gauss-law generators of the matter qubits gamma it touches, with the
    all-zero projector on the adjacent gauge qubits, which hold every gauge
    bit of every W(p).  A twirl survives the projector iff A p = 0, and
    maps matter basis state u to u ^ x with sign (-1)^(u . z + p . z), so
    the result is O times the sum S of (-1)^(p . z) over N, the kernel of A
    on gamma: S = |N| when z is orthogonal to N and 0 otherwise, and the
    deviation is |S - 1|.  The region is injective when N is 0, which is
    reported.
    """
    gamma_m, proj_mask = _claim1_region(lat, op, _gauged_image(lat, op))
    # the region's masks alone, read as in `gauss_echelon`: the kernel of A on gamma
    rows = Gf2Basis(lat.constraint_masks[i][0] for i in gamma_m).rows
    region_kernel = [r for r in rows[1:lat.n_matter + 1] if r]
    _, op_z = lat.masks(op)
    orthogonal = not any((p & op_z).bit_count() & 1 for p in region_kernel)
    dev = float(abs((1 << len(region_kernel) if orthogonal else 0) - 1))
    return CheckReport(
        name="partial-trace-inversion",
        passed=dev == 0 and not region_kernel,
        max_deviation=dev,
        details={"region_matter": len(gamma_m), "region_gauge": proj_mask.bit_count(),
                 "region_injective": not region_kernel},
    )


def check_matrix_elements(lat: DenseLattice, op: PauliColumn) -> CheckReport:
    """Matrix elements of a symmetric operator between a symmetric state and an
    arbitrary state survive the gauging sandwich.

    Both sides are bilinear, so comparing P O with P G^T O~ G, for the
    symmetric projector P, covers every pair of states at once.  With O =
    X(x) Z(z) and O~ G = (rep, sigma, s), over the denominator 2^(2 dim K)
    entry (r, c) of the first is 2^dim K (-1)^(c . z) when d = r ^ c lies
    in x ^ K, and of the second s (-1)^(c . sigma) |K & ker A| when A d ^
    rep lies in A(K).  Both sets of d are unions of cosets of K: they
    overlap iff A x ^ rep lies in A(K), and the second then holds more
    than x ^ K iff ker A is not inside K.
    """
    x, z = _matter_masks(lat, op)
    # a Pauli image of G, whose rep is 0, has sign 1 unless it is zeroed
    rep, sigma, s = gauged_state(lat, op)
    k = lat.symmetry_dim
    image = Gf2Basis(lat.coset_rep(v) for v in lat.symmetry_basis)
    overlap = 1 << (k - len(image))  # |K & ker A|
    if s and image.contains(lat.coset_rep(x) ^ rep):
        # c runs over every pattern, so differing characters meet with both signs
        worst = (1 << k) + overlap if sigma != z else (1 << k) - overlap
        if not all(map(Gf2Basis(lat.symmetry_basis).contains, lat.gauss_kernel)):
            worst = max(worst, overlap)
    else:
        worst = 1 << k
    dev = math.ldexp(float(worst), -2 * k)
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


def check_groundspace_span(lat: DenseLattice) -> GroundspaceReport:
    """The gauged basis states span the flat-connection ground sector.

    The comparison sector is cut out by the Gauss-law projectors together
    with Z fields for the full torus kernel of the constraint map; with
    only the box-local kernel fields the ground space also contains the
    wrapping (holonomy) sectors, whose count is reported.  Exactness of
    the local field content is certified in its windowed form: the columns
    of eta-dagger must generate the kernel of mu-dagger, for mu the
    box-local kernel of eta, away from wrapping classes.  Both the kernel
    search and the certificate depend on the model alone.
    """
    eta = lat.model.constraint_map
    mu_map = bounded_kernel(eta).matrix()
    eta_dag = eta.dagger()
    exact = KernelBasis(mu_map.dagger(), eta_dag.support_extent(),
                        [eta_dag.column(j) for j in range(eta_dag.cols)])
    local_ok = certify_on_torus(exact, certification_lengths(exact)).passed
    ker_mu_dag = lat.n_gauge - rank_on_torus(mu_map, lat.shape)
    # the flat fields are the torus kernel of eta, the vectors orthogonal to
    # its rows, so the rank of eta (the dagger's) is n_matter - dim ker A
    im_eta_dag = lat.n_matter - len(lat.gauss_kernel)
    # the n_matter Gauss-law masks are independent pure X, each holding its
    # own matter bit, and the fields are pure Z on gauge qubits, so a ground
    # space has dimension 2^(n_gauge - rank of its fields)
    dim_flat, dim_local = 1 << im_eta_dag, 1 << ker_mu_dag

    # G is fixed by every Gauss-law generator, and by every flat field exactly
    # when each mask's gauge part is in eta's row space: the mask reduces to no
    # gauge bit; its columns lie on 2^rank A cosets of im A, one dimension each
    echelon, n = lat.gauss_echelon, lat.n_matter
    contained = not any(echelon.reduce(xm) >> n for xm, _ in lat.constraint_masks)
    g_rank = 1 << im_eta_dag
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
