"""Cluster models on the bipartite constraint graph, and their gauging.

Everything derives from the constraint map eta: the matter types are its
rows, the gauge types its columns, and the stabilizers are the CZ
conjugates of single-site X.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gauging import SymmetryModel, gauge_operator
from .gf2 import Gf2Basis
from .pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    maps_equal_up_to_translation,
    verify_stabilizer,
)
from .poly import LaurentPoly
from .syzygy import bounded_kernel
from .torus import TorusShape, instantiate, rank_on_torus


def _stabilizers(model: SymmetryModel) -> list[PauliColumn]:
    """One cluster stabilizer per qubit type, matter types first.

    A matter type carries X on itself and Z on its adjacent gauge qubits; a
    gauge type carries X on itself and Z on its adjacent matter qubits.  The
    CZ layer is an involution, so it sends single-site X to the stabilizer
    of that type.
    """
    q = model.matter_q + model.n_constraints
    return [cz_conjugate(model, PauliColumn.single_x(model.dim, q, i)) for i in range(q)]


def build_cluster(model: SymmetryModel, name: str = "cluster") -> CodeSpec:
    """The verified cluster code on a symmetry model's bipartite constraint graph."""
    q = model.matter_q + model.n_constraints
    sigma = GeneratorMap.from_columns(
        model.dim, 2 * q, [s.entries() for s in _stabilizers(model)]
    )
    code = CodeSpec(name=name, css=False, sigma=sigma)
    rep = verify_stabilizer(code)
    if not rep.passed:
        raise AssertionError(f"cluster stabilizers fail to commute: {rep}")
    return code


def cz_conjugate(model: SymmetryModel, op: PauliColumn) -> PauliColumn:
    """Conjugate by the CZ layer along the cluster's adjacency.

    Matter X picks up Z on adjacent gauge qubits and gauge X picks up Z on
    adjacent matter qubits; Z factors are untouched.  Applying this to the
    cluster stabilizers strips all Z parts, leaving single-site X types.
    """
    eta = model.constraint_map
    qm = model.matter_q
    z_gauge = eta.dagger().apply(op.x_block[:qm])
    z_matter = eta.apply(op.x_block[qm:])
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


def inherited_symmetries(model: SymmetryModel, shape: TorusShape) -> SymmetryReport:
    """Count pure-X operators on each sublattice commuting with all stabilizers.

    Computed directly from the instantiated stabilizers, then matched
    against the torus kernels of the constraint map and its dagger.
    """
    n = shape.n_sites
    code = build_cluster(model)
    sigma, q = code.sigma, code.q_per_site

    def sublattice_dim(first_type: int, n_types: int) -> int:
        # an X pattern on the chosen types anticommutes with a stabilizer
        # translate exactly when it overlaps its Z part oddly, so the
        # symmetries are the left kernel of those types' Z-block rows
        z_rows = sigma.entries[q + first_type : q + first_type + n_types]
        return n_types * n - rank_on_torus(GeneratorMap(model.dim, z_rows, sigma.cols), shape)

    matter_dim = sublattice_dim(0, model.matter_q)
    gauge_dim = sublattice_dim(model.matter_q, model.n_constraints)

    # eta and its dagger instantiate to transposes, so they share one rank
    eta = model.constraint_map
    eta_rank = rank_on_torus(eta, shape)
    ker_eta = eta.cols * n - eta_rank
    ker_eta_dag = eta.rows * n - eta_rank
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
    """Gauge away one sublattice: each stabilizer's part on types [lo, hi)
    goes through `gauge_operator`, with the adjacency as the constraint map
    (its columns are the constraints being gauged).

    Qubit layout of the output: the untouched types keep their slots, the
    gauged sublattice's slots are dropped, and one new type per adjacency
    column is appended at the end.
    """
    lo, hi = old_range
    model = SymmetryModel(adjacency)
    out = []
    for s in stabs:
        part = PauliColumn(s.dim, hi - lo, s.x_block[lo:hi], s.z_block[lo:hi])
        image = gauge_operator(model, part)
        keep_x = s.x_block[:lo] + s.x_block[hi:]
        keep_z = s.z_block[:lo] + s.z_block[hi:]
        q = len(keep_x) + image.q
        out.append(PauliColumn(s.dim, q, keep_x + image.x_block, keep_z + image.z_block))
    return out


@dataclass(frozen=True)
class SublatticeGauging:
    code: CodeSpec
    extra_z_types: tuple[tuple[LaurentPoly, ...], ...]


def gauge_sublattice(model: SymmetryModel, which: str) -> SublatticeGauging:
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
    dim, eta = model.dim, model.constraint_map
    qm, t = model.matter_q, model.n_constraints
    zero = LaurentPoly.zero(dim)

    def kernel_fields(adjacency: GeneratorMap, before: int, after: int):
        """Kernel generators of the adjacency as Z blocks, zero-padded around."""
        gens = bounded_kernel(adjacency).generators
        return [(zero,) * before + tuple(g) + (zero,) * after for g in gens]

    if which == "matter":
        # constraints on matter are the eta columns (from the gauge stabilizers)
        new_stabs = _substitute_sublattice(_stabilizers(model), (0, qm), eta)
        extra = kernel_fields(eta, t, 0)
        q_new = t + t
    elif which == "gauge":
        new_stabs = _substitute_sublattice(_stabilizers(model), (qm, qm + t), eta.dagger())
        extra = kernel_fields(eta.dagger(), qm, 0)
        q_new = qm + qm
    else:
        once = gauge_sublattice(model, "matter")
        # the matter gauging left the old gauge types in slots [0, t) and the
        # new partners in [t, 2t); now gauge the old gauge sublattice, whose
        # Z patterns are generated by the dagger adjacency.  Only the main
        # qm + t types go through; the kernel fields are re-added afterwards.
        mid_stabs = once.code.generator_columns()[: qm + t]
        new_stabs = _substitute_sublattice(mid_stabs, (0, t), eta.dagger())
        # the matter gauging's kernel fields sit after the t old gauge types;
        # move them to the front of the t + qm new types
        extra = [e[t:] + (zero,) * qm for e in once.extra_z_types]
        extra += kernel_fields(eta.dagger(), t, 0)
        q_new = t + qm
    columns = [s.entries() for s in new_stabs] + [(zero,) * q_new + g for g in extra]
    code = CodeSpec(
        name=f"cluster-{which}-gauged",
        css=False,
        sigma=GeneratorMap.from_columns(dim, 2 * q_new, columns),
    )
    rep = verify_stabilizer(code)
    if not rep.passed:
        raise AssertionError(f"gauged cluster fails to commute: {rep}")
    return SublatticeGauging(code=code, extra_z_types=tuple(extra))


def cluster_self_dual(model: SymmetryModel) -> bool:
    """Gauging both sublattices returns the model up to sublattice swap and X<->Z."""
    both = gauge_sublattice(model, "both")
    # output layout: [new matter partners: t types][new gauge partners: qm types]
    t, qm = model.n_constraints, model.matter_q

    def swap(block):
        # partner blocks back to the original slots
        return block[t:] + block[:t]

    transformed = GeneratorMap.from_columns(
        model.dim,
        2 * (t + qm),
        [swap(s.z_block) + swap(s.x_block) for s in both.code.generator_columns()[: qm + t]],
    )
    return maps_equal_up_to_translation(transformed, build_cluster(model).sigma)


def extra_fields_redundant(model: SymmetryModel, shape: TorusShape) -> bool:
    """On a torus, the kernel fields added by double gauging lie in the span
    of the main stabilizer types' translates."""
    both = gauge_sublattice(model, "both")
    # the main types' translates come first, the extra fields' after them
    cols = instantiate(both.code.sigma.dagger(), shape).data
    n_main = (model.matter_q + model.n_constraints) * shape.n_sites
    span = Gf2Basis(cols[:n_main])
    return all(span.contains(v) for v in cols[n_main:])
