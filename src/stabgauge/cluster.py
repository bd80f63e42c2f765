"""Cluster models on the bipartite constraint graph, and their gauging."""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import Gf2Basis, Gf2Matrix
from .pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    maps_equal_up_to_translation,
    verify_stabilizer,
)
from .poly import LaurentPoly
from .syzygy import bounded_kernel, bounded_preimage
from .torus import TorusShape, instantiate


@dataclass(frozen=True)
class ClusterSpec:
    """Cluster model on matter (first Q types) and gauge (next T types) sublattices.

    One stabilizer type per qubit type: a matter type carries X on itself
    and Z on its adjacent gauge qubits; a gauge type carries X on itself
    and Z on its adjacent matter qubits.
    """

    dim: int
    matter_q: int
    gauge_q: int
    eta: GeneratorMap
    stabilizers: tuple[PauliColumn, ...]

    @property
    def q_per_site(self) -> int:
        return self.matter_q + self.gauge_q

    def to_code(self, name: str = "cluster") -> CodeSpec:
        q = self.q_per_site
        sigma = GeneratorMap.from_columns(
            self.dim, 2 * q, [s.entries() for s in self.stabilizers]
        )
        return CodeSpec(
            name=name, dim=self.dim, q_per_site=q, css=False, sigma=sigma
        )


def build_cluster(model) -> ClusterSpec:
    """Build the cluster model of a symmetry model's bipartite constraint graph."""
    dim = model.dim
    qm = model.matter_q
    t = model.n_constraints
    eta = model.constraint_map
    eta_dag = eta.dagger()
    zero = LaurentPoly.zero(dim)
    one = LaurentPoly.one(dim)
    stabs = []
    for q in range(qm):
        x = [one if i == q else zero for i in range(qm)] + [zero] * t
        z = [zero] * qm + [eta_dag.entries[j][q] for j in range(t)]
        stabs.append(PauliColumn(dim, qm + t, tuple(x), tuple(z)))
    for j in range(t):
        x = [zero] * qm + [one if i == j else zero for i in range(t)]
        z = [eta.entries[q][j] for q in range(qm)] + [zero] * t
        stabs.append(PauliColumn(dim, qm + t, tuple(x), tuple(z)))
    spec = ClusterSpec(dim, qm, t, eta, tuple(stabs))
    rep = verify_stabilizer(spec.to_code())
    if not rep.passed:
        raise AssertionError(f"cluster stabilizers fail to commute: {rep}")
    return spec


def cz_conjugate(c: ClusterSpec, op: PauliColumn) -> PauliColumn:
    """Conjugate by the CZ layer along the cluster's adjacency.

    Matter X picks up Z on adjacent gauge qubits and gauge X picks up Z on
    adjacent matter qubits; Z factors are untouched.  Applying this to the
    cluster stabilizers strips all Z parts, leaving single-site X types.
    """
    qm = c.matter_q
    z_gauge = c.eta.dagger().apply(op.x_block[:qm])
    z_matter = c.eta.apply(op.x_block[qm:])
    z = tuple(a + b for a, b in zip(op.z_block, z_matter + z_gauge))
    return PauliColumn(op.dim, op.q, op.x_block, z)


@dataclass(frozen=True)
class SymmetryReport:
    shape: TorusShape
    matter_dim: int
    gauge_dim: int
    matter_matches_constraint_cokernel: bool
    gauge_matches_constraint_kernel: bool

    def __str__(self) -> str:
        return (
            f"pure-X symmetries on {self.shape.lengths}: "
            f"matter sublattice {self.matter_dim} "
            f"(matches eta-dagger kernel: {self.matter_matches_constraint_cokernel}), "
            f"gauge sublattice {self.gauge_dim} "
            f"(matches eta kernel: {self.gauge_matches_constraint_kernel})"
        )


def inherited_symmetries(c: ClusterSpec, shape: TorusShape) -> SymmetryReport:
    """Count pure-X operators on each sublattice commuting with all stabilizers.

    Computed directly from the instantiated stabilizers, then matched
    against the torus kernels of the constraint map and its dagger.
    """
    n = shape.n_sites
    sigma_t = instantiate(c.to_code().full_sigma(), shape)
    q = c.q_per_site

    def sublattice_dim(first_type: int, n_types: int) -> int:
        # an X pattern on the chosen types anticommutes with a stabilizer
        # translate exactly when it overlaps its Z part oddly, so the
        # symmetries are the left kernel of those types' Z-block rows
        z_rows = sigma_t.data[(q + first_type) * n : (q + first_type + n_types) * n]
        return n_types * n - Gf2Matrix(len(z_rows), sigma_t.cols, z_rows).rank()

    matter_dim = sublattice_dim(0, c.matter_q)
    gauge_dim = sublattice_dim(c.matter_q, c.gauge_q)

    eta_t = instantiate(c.eta, shape)
    eta_dag_t = instantiate(c.eta.dagger(), shape)
    ker_eta = eta_t.cols - eta_t.rank()
    ker_eta_dag = eta_dag_t.cols - eta_dag_t.rank()
    return SymmetryReport(
        shape=shape,
        matter_dim=matter_dim,
        gauge_dim=gauge_dim,
        matter_matches_constraint_cokernel=(matter_dim == ker_eta_dag),
        gauge_matches_constraint_kernel=(gauge_dim == ker_eta),
    )


def _substitute_sublattice(
    stabs: list[PauliColumn], old_range: tuple[int, int], adjacency: GeneratorMap
) -> list[PauliColumn]:
    """Gauge away one sublattice: X there becomes an X pattern on partner
    qubits (via the dagger of the adjacency), Z patterns become single
    partner Z's (the adjacency columns are the constraints being gauged).

    Qubit layout of the output: the untouched types keep their slots, the
    gauged sublattice's slots are dropped, and one new type per adjacency
    column is appended at the end.
    """
    lo, hi = old_range
    adj_dag = adjacency.dagger()
    out = []
    for s in stabs:
        keep_x = s.x_block[:lo] + s.x_block[hi:]
        keep_z = s.z_block[:lo] + s.z_block[hi:]
        new_x = adj_dag.apply(s.x_block[lo:hi])
        new_z = bounded_preimage(adjacency, s.z_block[lo:hi])
        out.append(
            PauliColumn(s.dim, len(keep_x) + adjacency.cols, keep_x + new_x, keep_z + new_z)
        )
    return out


@dataclass(frozen=True)
class SublatticeGauging:
    code: CodeSpec
    extra_z_types: tuple[tuple[LaurentPoly, ...], ...]


def gauge_sublattice(
    c: ClusterSpec, which: str, box: tuple[int, ...] | None = None
) -> SublatticeGauging:
    """Gauge the matter sublattice, the gauge sublattice, or both.

    Gauging one sublattice doubles the remaining one: each X or Z field
    there acquires a partner Z or X on the new qubits, and the box-local
    kernel fields of the gauged adjacency are added as extra Z types on
    the new qubits.  Gauging both returns the cluster itself up to
    sublattice swap and X<->Z exchange; the extra kernel fields are then
    redundant and reported separately.
    """
    if which not in ("matter", "gauge", "both"):
        raise ValueError("which must be matter, gauge or both")
    dim = c.dim
    qm, t = c.matter_q, c.gauge_q
    zero = LaurentPoly.zero(dim)

    def kernel_fields(adjacency: GeneratorMap, before: int, after: int):
        """Kernel generators of the adjacency as Z blocks, zero-padded around."""
        gens = bounded_kernel(adjacency, box).generators
        return [(zero,) * before + tuple(g) + (zero,) * after for g in gens]

    if which == "matter":
        # constraints on matter are the eta columns (from the gauge stabilizers)
        new_stabs = _substitute_sublattice(list(c.stabilizers), (0, qm), c.eta)
        extra = kernel_fields(c.eta, t, 0)
        q_new = t + t
    elif which == "gauge":
        new_stabs = _substitute_sublattice(list(c.stabilizers), (qm, qm + t), c.eta.dagger())
        extra = kernel_fields(c.eta.dagger(), qm, 0)
        q_new = qm + qm
    else:
        once = gauge_sublattice(c, "matter", box)
        # the matter gauging left the old gauge types in slots [0, t) and the
        # new partners in [t, 2t); now gauge the old gauge sublattice, whose
        # Z patterns are generated by the dagger adjacency.  Only the main
        # qm + t types go through; the kernel fields are re-added afterwards.
        mid_stabs = once.code.generator_columns()[: qm + t]
        new_stabs = _substitute_sublattice(mid_stabs, (0, t), c.eta.dagger())
        # the matter gauging's kernel fields sit after the t old gauge types;
        # move them to the front of the t + qm new types
        extra = [e[t:] + (zero,) * qm for e in once.extra_z_types]
        extra += kernel_fields(c.eta.dagger(), t, 0)
        q_new = t + qm
    columns = [s.entries() for s in new_stabs] + [(zero,) * q_new + g for g in extra]
    code = CodeSpec(
        name=f"cluster-{which}-gauged",
        dim=dim,
        q_per_site=q_new,
        css=False,
        sigma=GeneratorMap.from_columns(dim, 2 * q_new, columns),
    )
    rep = verify_stabilizer(code)
    if not rep.passed:
        raise AssertionError(f"gauged cluster fails to commute: {rep}")
    return SublatticeGauging(code=code, extra_z_types=tuple(extra))


def cluster_self_dual(c: ClusterSpec, box: tuple[int, ...] | None = None) -> bool:
    """Gauging both sublattices returns the model up to sublattice swap and X<->Z."""
    both = gauge_sublattice(c, "both", box)
    # output layout: [new matter partners: t types][new gauge partners: qm types]
    t, qm = c.gauge_q, c.matter_q

    def swap(block):
        # partner blocks back to the original slots
        return block[t:] + block[:t]

    transformed = GeneratorMap.from_columns(
        c.dim,
        2 * (t + qm),
        [swap(s.z_block) + swap(s.x_block) for s in both.code.generator_columns()[: qm + t]],
    )
    return maps_equal_up_to_translation(transformed, c.to_code().sigma)


def extra_fields_redundant(
    c: ClusterSpec, shape: TorusShape, box: tuple[int, ...] | None = None
) -> bool:
    """On a torus, the kernel fields added by double gauging lie in the span
    of the main stabilizer types' translates."""
    both = gauge_sublattice(c, "both", box)
    # the main types' translates come first, the extra fields' after them
    cols = instantiate(both.code.sigma, shape).transpose().data
    n_main = (c.matter_q + c.gauge_q) * shape.n_sites
    span = Gf2Basis(cols[:n_main])
    return all(span.contains(v) for v in cols[n_main:])
