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

Every Gauss-law generator is pure X, so every state the checks touch lies
in `DenseLattice.rows`, the XOR span of the matter bits and the Gauss-law
X masks, and blocks hold those rows only.  Amplitudes off them are exact
zeros; each one on them gets the same float operations as over all 2^n
basis states.  The qubit cap still counts all matter and gauge qubits.

Raw qubit coordinates are the torus bit layout of the `torus` module,
matter types first and gauge types after them; every Pauli mask is read
off `instantiate` and split into its X and Z blocks.
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
from .gf2 import Gf2Basis, Gf2Matrix
from .pauli import GeneratorMap, PauliColumn
from .poly import LaurentPoly
from .syzygy import KernelBasis, bounded_kernel, certification_lengths, certify_on_torus
from .torus import TorusShape, instantiate

DEFAULT_QUBIT_CAP = 20
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
        return self._raw_translates([op])[0]

    def _raw_translates(self, ops: list[PauliColumn]) -> list[tuple[int, int]]:
        """Raw (xmask, zmask) of every torus translate of the columns; the
        translate of column k to site s is entry k * N + s."""
        split = ops[0].q * self.n_sites
        m = GeneratorMap.from_columns(self.shape.dim, 2 * ops[0].q, [op.entries() for op in ops])
        cols = instantiate(m, self.shape).transpose().data
        return [(v & ((1 << split) - 1), v >> split) for v in cols]

    def masks(self, op: PauliColumn) -> tuple[int, int]:
        """(xmask, zmask) of a Pauli column over lattice bits."""
        xm, zm = self.raw_masks(op)
        return self.lift_mask(xm), self.lift_mask(zm)

    @cached_property
    def _raw_gauss_masks(self) -> list[tuple[int, int]]:
        """Raw masks of the Gauss-law generator translates, indexed by the
        raw matter bit q * N + s that each one flips."""
        return self._raw_translates(pi_generators(self.model))

    def constraint_masks(self) -> list[tuple[int, int]]:
        """All Gauss-law generator translates as (xmask, zmask) pairs."""
        return [(self.lift_mask(xm), self.lift_mask(zm)) for xm, zm in self._raw_gauss_masks]

    @cached_property
    def rows(self) -> np.ndarray:
        """Sorted basis states that every dense state is supported on: the
        span of the matter bits and the Gauss-law X masks."""
        basis = Gf2Basis([self.lift_mask(1 << i) for i in range(self.n_matter)]
                         + [xm for xm, _ in self.constraint_masks()])
        rows = np.zeros(1, dtype=np.int64)
        for v in basis.rows.values():
            rows = np.concatenate([rows, rows ^ v])
        return np.sort(rows)


def apply_pauli(vec: np.ndarray, xmask: int, zmask: int, rows: np.ndarray) -> np.ndarray:
    """Apply X(xmask) Z(zmask): sign from zmask overlap, then flip xmask bits.

    vec is one state or a (len(rows), m) block of states, acted on column by
    column; entry i is the amplitude of basis state rows[i], for a sorted
    row set that xmask must map onto itself (ValueError otherwise).
    """
    out = vec
    if zmask:
        signs = 1.0 - 2.0 * (np.bitwise_count(rows & zmask) & 1)
        out = out * signs.reshape((len(rows),) + (1,) * (vec.ndim - 1))
    if xmask:
        moved = rows ^ xmask
        src = np.searchsorted(rows, moved)
        if not np.array_equal(rows.take(src, mode="clip"), moved):
            raise ValueError(f"X mask {xmask:#x} leaves the row set")
        out = out[src]
    return out


def _apply_projectors(vec: np.ndarray, masks: list[tuple[int, int]],
                      rows: np.ndarray) -> np.ndarray:
    for xm, zm in masks:
        vec = 0.5 * (vec + apply_pauli(vec, xm, zm, rows))
    return vec


@dataclass
class GaugeMapInfo:
    norm_exponent: int
    symmetry_dim: int
    n_constraints: int


def _matter_basis_states(lat: DenseLattice) -> tuple[np.ndarray, np.ndarray]:
    """Each matter basis state adjoined with all-zero gauge qubits, as the
    columns of a block over lat.rows, and the position each one occupies."""
    dim_m = 1 << lat.n_matter
    at = np.searchsorted(lat.rows, lat.lift_mask(np.arange(dim_m)))
    block = np.zeros((len(lat.rows), dim_m))
    block[at, np.arange(dim_m)] = 1.0
    return block, at


def build_G(lat: DenseLattice, normalized: bool = True) -> tuple[np.ndarray, GaugeMapInfo]:
    """Dense state gauging map: project each matter basis state adjoined with
    all-zero gauge qubits onto the Gauss-law subspace.

    With no constraint types there is nothing to gauge and the map is the
    identity.  When normalized, the map is scaled by 2^((NQ - dim K)/2) so
    its Gram matrix is exactly the symmetric-subspace projector; K is the
    symmetry group of the model on this torus.
    """
    if lat.model.n_constraints == 0:
        return np.eye(1 << lat.n_matter), GaugeMapInfo(0, 0, 0)
    masks = lat.constraint_masks()
    eta_dag_t = instantiate(lat.model.constraint_map.dagger(), lat.shape)
    dim_k = eta_dag_t.cols - eta_dag_t.rank()
    cols = _apply_projectors(_matter_basis_states(lat)[0], masks, lat.rows)
    exponent = len(masks) - dim_k
    if normalized:
        cols *= 2.0 ** (exponent / 2.0)
    return cols, GaugeMapInfo(exponent, dim_k, len(masks))


def matter_operator_dense(lat: DenseLattice, op: PauliColumn) -> np.ndarray:
    """Dense matrix of a matter-layout Pauli column on the matter space."""
    if op.q != lat.model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    dim = 1 << lat.n_matter
    return apply_pauli(np.eye(dim), *lat.raw_masks(op), np.arange(dim))


def symmetric_projector(lat: DenseLattice) -> np.ndarray:
    """Average of the symmetry group's X products on the matter space.

    The group is spanned by the torus kernel of the dagger of the
    constraint map, as masks over raw matter coordinates; the product of
    (1 + X_b)/2 over a basis of it is the group average.
    """
    eta_dag_t = instantiate(lat.model.constraint_map.dagger(), lat.shape)
    dim = 1 << lat.n_matter
    return _apply_projectors(np.eye(dim), [(b, 0) for b in eta_dag_t.nullspace()], np.arange(dim))


def _gauged_image(lat: DenseLattice, op: PauliColumn) -> PauliColumn:
    """The gauged image of a symmetric matter operator on the enlarged lattice
    (identity on the matter types); raises NotSymmetricError otherwise."""
    image = gauge_operator(lat.model, op)
    no_matter = (LaurentPoly.zero(op.dim),) * lat.model.matter_q
    return PauliColumn(op.dim, op.q + image.q, no_matter + image.x_block, no_matter + image.z_block)


def gauged_operator_action(lat: DenseLattice, op: PauliColumn):
    """Return a function applying the gauged image of a symmetric matter
    operator on lat.rows, to one state or a block of states: the
    disentangler-conjugated image followed by the Gauss-law projector."""
    conj = conjugate_by_disentangler(lat.model, _gauged_image(lat, op))
    xm, zm = lat.masks(conj)
    masks = lat.constraint_masks()

    def act(vec: np.ndarray) -> np.ndarray:
        return _apply_projectors(apply_pauli(vec, xm, zm, lat.rows), masks, lat.rows)

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


def check_lemma2(model: SymmetryModel, shape: TorusShape, cap: int = DEFAULT_QUBIT_CAP,
                 perm: tuple[int, ...] | None = None) -> CheckReport:
    """Gram matrix of the gauging map versus the symmetric-subspace projector."""
    lat = DenseLattice(model, shape, cap, perm)
    g, info = build_G(lat)
    gram = g.T @ g
    proj = symmetric_projector(lat) if model.n_constraints else np.eye(gram.shape[0])
    dev = float(np.max(np.abs(gram - proj)))
    return CheckReport(
        name="gram-vs-symmetric-projector",
        passed=dev <= DERIVED_TOL,
        max_deviation=dev,
        details={"norm_exponent": info.norm_exponent, "symmetry_dim": info.symmetry_dim},
    )


def check_lemma3(model: SymmetryModel, shape: TorusShape, op: PauliColumn,
                 cap: int = DEFAULT_QUBIT_CAP) -> CheckReport:
    """Intertwining identity: gauged operator after gauging equals gauging after op."""
    lat = DenseLattice(model, shape, cap)
    g, _ = build_G(lat)
    act = gauged_operator_action(lat, op)
    lhs = act(g)
    rhs = g @ matter_operator_dense(lat, op)
    dev = float(np.max(np.abs(lhs - rhs)))
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


def check_claim1(model: SymmetryModel, shape: TorusShape, op: PauliColumn,
                 cap: int = DEFAULT_QUBIT_CAP) -> CheckReport:
    """Partial-trace inversion: gauging then restricting the gauge qubits to
    the all-zero state recovers a symmetric operator exactly.

    The operator is twirled over Gauss-law generators of the matter qubits
    it touches, with the all-zero projector on the adjacent gauge qubits;
    the region is small enough that no nonzero X pattern inside it is
    silent on all its gauge checks, which is verified and reported.
    """
    lat = DenseLattice(model, shape, cap)
    gamma_m, gamma_g, pi_raw = _claim1_region(lat, op, _gauged_image(lat, op))
    nm = lat.n_matter

    # the gauge X bits of the region's Gauss-law generators are the
    # adjacency, which must be injective on the twirl region
    rows = []
    for g_raw in gamma_g:
        row = 0
        for k, (xm, _) in enumerate(pi_raw):
            if (xm >> (nm + g_raw)) & 1:
                row |= 1 << k
        rows.append(row)
    h = Gf2Matrix(len(rows), len(gamma_m), rows)
    region_ok = h.rank() == len(gamma_m)
    pi_masks = [(lat.lift_mask(xm), lat.lift_mask(zm)) for xm, zm in pi_raw]

    proj_mask = lat.lift_mask(sum(1 << (nm + g_raw) for g_raw in gamma_g))

    op_x, op_z = lat.masks(op)
    basis, basis_at = _matter_basis_states(lat)
    zero_sel = (lat.rows & proj_mask) == 0
    out = np.zeros_like(basis)
    for subset in range(1 << len(gamma_m)):
        xm = zm = 0
        for k in range(len(gamma_m)):
            if (subset >> k) & 1:
                pxm, pzm = pi_masks[k]
                xm ^= pxm
                zm ^= pzm
        term = apply_pauli(basis, xm, zm, lat.rows)
        term = apply_pauli(term, op_x, op_z, lat.rows)
        term = np.where(zero_sel[:, None], term, 0.0)
        term = apply_pauli(term, xm, zm, lat.rows)
        out += term
    recovered = out[basis_at]
    expected = matter_operator_dense(lat, op)
    dev = float(np.max(np.abs(recovered - expected)))
    return CheckReport(
        name="partial-trace-inversion",
        passed=dev <= DERIVED_TOL and region_ok,
        max_deviation=dev,
        details={"region_matter": len(gamma_m), "region_gauge": len(gamma_g),
                 "region_injective": region_ok},
    )


def check_matrix_elements(model: SymmetryModel, shape: TorusShape, op: PauliColumn,
                          psi0: np.ndarray | None = None,
                          psi1: np.ndarray | None = None,
                          trials: int = 20, seed: int = 7,
                          cap: int = DEFAULT_QUBIT_CAP) -> CheckReport:
    """Matrix elements of a symmetric operator between a symmetric state and an
    arbitrary state survive the gauging sandwich."""
    lat = DenseLattice(model, shape, cap)
    g, _ = build_G(lat)
    act = gauged_operator_action(lat, op)
    o_m = matter_operator_dense(lat, op)
    proj = symmetric_projector(lat) if model.n_constraints else np.eye(o_m.shape[0])
    rng = np.random.default_rng(seed)
    dim_m = o_m.shape[0]

    def one(p0, p1) -> float:
        sym = proj @ p0
        norm = np.linalg.norm(sym)
        if norm < 1e-9:
            raise ValueError("state has no symmetric component")
        sym = sym / norm
        lhs = sym @ (o_m @ p1)
        rhs = (g @ sym) @ act(g @ p1)
        return abs(lhs - rhs)

    if psi0 is not None or psi1 is not None:
        if psi0 is None or psi1 is None:
            raise ValueError("provide both states or neither")
        if not np.allclose(proj @ psi0, psi0, atol=DERIVED_TOL):
            raise ValueError("psi0 is not symmetric")
        dev = one(psi0, psi1)
        return CheckReport("matrix-elements", dev <= DERIVED_TOL, float(dev), {"trials": 1})
    worst = 0.0
    for _ in range(trials):
        p0 = rng.standard_normal(dim_m)
        p1 = rng.standard_normal(dim_m)
        worst = max(worst, one(p0, p1))
    return CheckReport(
        "matrix-elements", worst <= DERIVED_TOL, float(worst), {"trials": trials}
    )


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


def check_groundspace_span(model: SymmetryModel, shape: TorusShape,
                           cap: int = DEFAULT_QUBIT_CAP) -> GroundspaceReport:
    """The gauged basis states span the flat-connection ground sector.

    The comparison sector is cut out by the Gauss-law projectors together
    with Z fields for the full torus kernel of the constraint map; with
    only the box-local kernel fields the ground space also contains the
    wrapping (holonomy) sectors, whose count is reported.  Exactness of
    the local field content is certified in its windowed form first.
    """
    lat = DenseLattice(model, shape, cap)
    n = lat.n_total
    nm = lat.n_matter
    eta = model.constraint_map

    if model.n_constraints == 0:
        return GroundspaceReport(
            passed=True, ground_dim_flat=1 << nm, ground_dim_local_fields=1 << nm,
            holonomy_sectors=1, g_rank=1 << nm, contained=True, local_exactness=True,
            kernel_mu_dagger_dim=0, image_eta_dagger_dim=0,
        )

    mu = bounded_kernel(eta)
    mu_map = mu.matrix()
    # windowed exactness: the columns of the dagger of eta generate the
    # kernel of the dagger of mu away from wrapping classes
    eta_dag = eta.dagger()
    eta_cols_basis = KernelBasis(
        parent=mu_map.dagger(),
        box=tuple(max(e, 1) for e in eta_dag.support_extent()),
        generators=[eta_dag.column(j) for j in range(eta_dag.cols)],
    )
    mu_dag_t = instantiate(mu_map.dagger(), shape)
    eta_dag_t = instantiate(eta_dag, shape)
    ker_mu_dag = mu_dag_t.cols - mu_dag_t.rank()
    im_eta_dag = eta_dag_t.rank()
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

    flat_masks = [(0, gauge_zmask(v)) for v in instantiate(eta, shape).nullspace()]
    mu_translate_masks = []
    if mu_map.cols:
        # columns of the instantiated map are the translates' gauge patterns
        mu_t = instantiate(mu_map, shape).transpose()
        mu_translate_masks = [(0, gauge_zmask(v)) for v in mu_t.data]

    def group_rank(pairs: list[tuple[int, int]]) -> int:
        rows = [xm | (zm << n) for xm, zm in pairs]
        return Gf2Matrix(len(rows), 2 * n, rows).rank()

    rank_flat = group_rank(masks + flat_masks)
    rank_local = group_rank(masks + mu_translate_masks)
    dim_flat = 1 << (n - rank_flat)
    dim_local = 1 << (n - rank_local)

    g, _ = build_G(lat)
    contained = True
    for xm, zm in masks + flat_masks:
        moved = apply_pauli(g, xm, zm, lat.rows)
        if np.max(np.abs(moved - g)) > DERIVED_TOL:
            contained = False
            break
    svals = np.linalg.svd(g, compute_uv=False)
    g_rank = int(np.sum(svals > 1e-9 * max(1.0, svals[0])))
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
