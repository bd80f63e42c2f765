"""Cluster models on the bipartite constraint graph, and their gauging.

Everything derives from the constraint map eta: the matter types are its
rows, the gauge types its columns, and the stabilizers are the CZ
conjugates of single-site X.
"""

from __future__ import annotations

from collections import namedtuple

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


def build_cluster(model: SymmetryModel, name: str = "cluster") -> CodeSpec:
    """The verified cluster code on a symmetry model's bipartite constraint graph.

    One stabilizer per qubit type, matter types first: a matter type carries
    X on itself and Z on its adjacent gauge qubits, a gauge type X on itself
    and Z on its adjacent matter qubits.  The CZ layer is an involution, so
    it sends single-site X to the stabilizer of that type.
    """
    q = model.matter_q + model.n_constraints
    stabs = [cz_conjugate(model, PauliColumn.single_x(model.dim, q, i)).entries() for i in range(q)]
    code = CodeSpec(name=name, css=False, sigma=GeneratorMap.from_columns(model.dim, 2 * q, stabs))
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


class SymmetryReport(namedtuple("SymmetryReport", (
        "shape", "matter_dim", "gauge_dim", "matter_matches_constraint_cokernel",
        "gauge_matches_constraint_kernel"))):
    __slots__ = ()

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


def _gauge_types(code: CodeSpec, lo: int, hi: int, adjacency: GeneratorMap, name: str) -> CodeSpec:
    """Gauge away qubit types [lo, hi) of a code, with the adjacency as the
    constraint map (its columns are the constraints being gauged).

    Each stabilizer's part on the gauged types goes through `gauge_operator`;
    the other types keep their slots, and one new type per adjacency column
    is appended.  The box-local kernel fields of the adjacency follow as
    extra Z generators on the new types.
    """
    model = SymmetryModel(adjacency)
    kept = code.q_per_site - (hi - lo)
    zero = LaurentPoly.zero(code.dim)
    columns = []
    for s in code.generator_columns():
        part = PauliColumn(s.dim, hi - lo, s.x_block[lo:hi], s.z_block[lo:hi])
        image = gauge_operator(model, part)
        x = s.x_block[:lo] + s.x_block[hi:] + image.x_block
        z = s.z_block[:lo] + s.z_block[hi:] + image.z_block
        columns.append(x + z)
    for g in bounded_kernel(adjacency).generators:
        columns.append((zero,) * (2 * kept + adjacency.cols) + tuple(g))
    q = kept + adjacency.cols
    sigma = GeneratorMap.from_columns(code.dim, 2 * q, columns)
    gauged = CodeSpec(name=name, css=False, sigma=sigma)
    rep = verify_stabilizer(gauged)
    if not rep.passed:
        raise AssertionError(f"gauged cluster fails to commute: {rep}")
    return gauged


def gauge_sublattice(model: SymmetryModel, which: str, name: str = "cluster") -> CodeSpec:
    """Gauge the matter sublattice, the gauge sublattice, or both, of the
    cluster model; the result is named `<name>-<which>-gauged`.

    Gauging one sublattice doubles the remaining one: each X or Z field
    there acquires a partner Z or X on the new qubits, and the box-local
    kernel fields of the gauged adjacency are added as extra Z types on
    the new qubits.  Gauging both gauges the matter-gauged code's old gauge
    types in turn; that returns the cluster itself up to sublattice swap and
    X<->Z exchange, and the extra kernel fields of both steps, which come
    after the qm + t main types, are redundant on a torus.
    """
    if which not in ("matter", "gauge", "both"):
        raise ValueError("which must be matter, gauge or both")
    eta = model.constraint_map
    qm, t = model.matter_q, model.n_constraints
    cluster = build_cluster(model)
    name = f"{name}-{which}-gauged"
    if which == "gauge":
        return _gauge_types(cluster, qm, qm + t, eta.dagger(), name)
    # constraints on matter are the eta columns (from the gauge stabilizers)
    matter = _gauge_types(cluster, 0, qm, eta, name)
    if which == "matter":
        return matter
    # the old gauge types now sit in slots [0, t); the first step's kernel
    # fields have no support there, so they pass through onto the new types
    return _gauge_types(matter, 0, t, eta.dagger(), name)


def cluster_self_dual(model: SymmetryModel) -> bool:
    """Gauging both sublattices returns the model up to sublattice swap and X<->Z.

    This compares the main generator sets up to per-column translation, not
    the stabilizer groups.  It returns False when eta or its dagger has
    box-local kernel fields that enter the main generators, even though the
    swapped doubly gauged code, extra kernel fields included, can span the
    same translates as the cluster; eta = (1; 1) in 1D is an example.
    """
    both = gauge_sublattice(model, "both")
    # output layout: [new matter partners: t types][new gauge partners: qm types]
    t, qm = model.n_constraints, model.matter_q

    def swap(block):
        # partner blocks back to the original slots
        return block[t:] + block[:t]

    transformed = GeneratorMap.from_columns(
        model.dim,
        2 * (t + qm),
        [swap(s.z_block) + swap(s.x_block) for s in both.generator_columns()[: qm + t]],
    )
    return maps_equal_up_to_translation(transformed, build_cluster(model).sigma)


def extra_fields_redundant(model: SymmetryModel, shape: TorusShape) -> bool:
    """On a torus, the kernel fields added by double gauging lie in the span
    of the main stabilizer types' translates."""
    both = gauge_sublattice(model, "both")
    # the main types' translates come first, the extra fields' after them
    cols = instantiate(both.sigma.dagger(), shape).data
    n_main = (model.matter_q + model.n_constraints) * shape.n_sites
    span = Gf2Basis(cols[:n_main])
    return all(span.contains(v) for v in cols[n_main:])
