"""The gauging duality for tensor-product X symmetries of Pauli models.

A symmetry model is a lattice of matter qubits whose X symmetry is pinned
down locally by Z-constraint fields, the columns of a map eta, and
everything in the gauging derives from eta.  Gauging adjoins one gauge
qubit per constraint type: the X stabilizers are the dagger of eta, so
single-site matter X becomes an X star on adjacent gauge qubits, and the
Z stabilizers are the box-local kernel generators of eta, the
flat-connection fields.  A symmetric operator is gauged by one rule: its
X part goes through the dagger of eta and its Z part to a preimage under
eta.  The box-local X symmetries of the matter model generate the kernel
of the dagger of eta, so they commute with every constraint by
construction.  Reading the gauging backwards from a CSS code recovers the
matter model, and doing both is the identity up to per-column
translation.
"""

from __future__ import annotations

from collections import namedtuple

from .pauli import (
    CodeSpec,
    GeneratorMap,
    PauliColumn,
    canonical_column_set,
    maps_equal_up_to_translation,
    verify_stabilizer,
)
from .syzygy import (
    KernelBasis,
    NotSymmetricError,  # raised by gauge_operator; callers import it from here
    bounded_kernel,
    bounded_preimage,
)


class SymmetryModel(namedtuple("SymmetryModel", ("constraint_map", "notes"), defaults=("",))):
    """Matter qubits with a locally-defined tensor-product X symmetry.

    constraint_map (eta) has one row per matter qubit type and one column
    per Z-constraint type; the lattice dimension and both type counts are
    read off it.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.constraint_map.dim

    @property
    def matter_q(self) -> int:
        return self.constraint_map.rows

    @property
    def n_constraints(self) -> int:
        return self.constraint_map.cols


def symmetry_model_from_code(code: CodeSpec) -> SymmetryModel:
    """Interpret a single-sector (Z-only or X-only) code as a symmetry model."""
    if not code.css:
        raise ValueError("only CSS codes define a symmetry model directly")
    if code.n_x_types > 0 and code.n_z_types > 0:
        return ungauge_css(code)
    sector = code.sigma_z if code.n_z_types > 0 else code.sigma_x
    if sector.cols == 0:
        raise ValueError("code has no generators")
    return SymmetryModel(sector, notes=f"from {code.name}")


def ungauge_css(code: CodeSpec) -> SymmetryModel:
    """Read the matter model off a CSS code.

    The matter lattice carries one qubit per X-stabilizer type, and the
    constraints are the dagger of the X sector map, one per original qubit
    type.
    """
    if not code.css:
        raise ValueError("ungauging needs a CSS code")
    report = verify_stabilizer(code)
    if not report.passed:
        raise ValueError(f"code is not commuting: {report}")
    if code.n_x_types == 0:
        raise ValueError("code has no X stabilizers to ungauge")
    return SymmetryModel(code.sigma_x.dagger(), notes=f"ungauged {code.name}")


def gauge(
    model: SymmetryModel, box: tuple[int, ...] | None = None
) -> tuple[CodeSpec, KernelBasis]:
    """Gauge a symmetry model into a CSS code on the gauge-qubit lattice.

    X stabilizers are the dagger of the constraint map (one per matter
    qubit type); Z stabilizers are the box-local kernel generators of the
    constraint map, which commute by `bounded_kernel`'s exact identity.
    Returns the code and the kernel basis behind its Z stabilizers.
    Nothing is certified here: a caller that reads a certificate runs
    `certify_on_torus(mu, certification_lengths(mu))` on the returned basis.
    """
    eta = model.constraint_map
    mu = bounded_kernel(eta, box)
    code = CodeSpec(
        name="gauged",
        css=True,
        sigma_x=eta.dagger(),
        sigma_z=mu.matrix(),
        notes=f"gauged from: {model.notes}" if model.notes else "gauged",
    )
    return code, mu


def _swap_sectors(code: CodeSpec) -> CodeSpec:
    """Exchange the X and Z sectors of a CSS code (sitewise Hadamard)."""
    return CodeSpec(
        name=f"{code.name}-swapped",
        css=True,
        sigma_x=code.sigma_z,
        sigma_z=code.sigma_x,
        notes=code.notes,
    )


class DualityReport(namedtuple("DualityReport", ("passed", "forward_match", "dual_match", "diff"),
                               defaults=("",))):
    __slots__ = ()

    def __str__(self) -> str:
        if self.passed:
            return "duality round trip: pass (both gauging orders)"
        return f"duality round trip: FAIL\n{self.diff}"


def _describe_columns(label: str, m: GeneratorMap) -> str:
    cols = canonical_column_set(m)
    lines = [label]
    for col in cols:
        lines.append("  (" + ", ".join(str(p) for p in col) + ")")
    return "\n".join(lines)


def _nonzero_columns(m: GeneratorMap) -> GeneratorMap:
    """m without its all-zero columns."""
    cols = [col for col in (m.column(j) for j in range(m.cols)) if any(col)]
    return GeneratorMap.from_columns(m.dim, m.rows, cols)


def double_gauge_check(code: CodeSpec) -> DualityReport:
    """Ungauge then regauge a CSS code, in both sector orders, and compare.

    The comparison allows per-column monomial translation and column
    reordering, and leaves out all-zero generators; the dual order
    exchanges the X and Z sectors before and after, which is the
    relabeling the construction itself introduces; `ungauge_css` rejects a
    code that does not commute.  The comparison is the check, so no kernel
    is certified.  A failure lists both column sets in `normalize_column`
    form.
    """
    if not code.css:
        raise ValueError("duality check needs a CSS code")
    if code.n_z_types == 0:
        raise ValueError("duality check needs Z stabilizers")

    def round_trip(c: CodeSpec) -> tuple[bool, str]:
        model = ungauge_css(c)
        regauged, _ = gauge(model)
        diff = []
        for sector, want, got in (("X", c.sigma_x, regauged.sigma_x),
                                  ("Z", c.sigma_z, regauged.sigma_z)):
            # regauging never yields an all-zero generator, which stabilizes nothing
            if not maps_equal_up_to_translation(_nonzero_columns(got), _nonzero_columns(want)):
                diff += [_describe_columns(f"expected {sector}:", want),
                         _describe_columns(f"regauged {sector}:", got)]
        return not diff, "\n".join(diff)

    fwd_ok, fwd_diff = round_trip(code)
    dual_ok, dual_diff = round_trip(_swap_sectors(code))
    passed = fwd_ok and dual_ok
    diff = "\n".join(x for x in (fwd_diff, dual_diff) if x)
    return DualityReport(passed=passed, forward_match=fwd_ok, dual_match=dual_ok, diff=diff)


def gauge_operator(model: SymmetryModel, op: PauliColumn) -> PauliColumn:
    """Map a symmetric matter operator to its image on the gauge qubits.

    Single-site matter X factors become X stars read off the dagger of the
    constraint map; the Z part is replaced by one deterministic preimage
    under the constraint map, single Z factors on gauge qubits.
    """
    if op.dim != model.dim or op.q != model.matter_q:
        raise ValueError("operator does not live on the matter lattice")
    eta = model.constraint_map
    x_out = eta.dagger().apply(op.x_block)
    z_out = bounded_preimage(eta, op.z_block)
    return PauliColumn(model.dim, eta.cols, x_out, z_out)


def pi_generators(model: SymmetryModel) -> list[PauliColumn]:
    """Local Gauss-law generators on the matter-plus-gauge lattice.

    One per matter qubit type: X on the matter qubit times X on every
    adjacent gauge qubit under the dagger of the constraint map.  The CX
    disentangler is an involution, so these are its images of single-site
    matter X.
    """
    q = model.matter_q + model.n_constraints
    return [
        conjugate_by_disentangler(model, PauliColumn.single_x(model.dim, q, i))
        for i in range(model.matter_q)
    ]


def conjugate_by_disentangler(model: SymmetryModel, op: PauliColumn) -> PauliColumn:
    """Conjugate an operator on the enlarged lattice by the CX disentangler.

    Controls sit on matter qubits, targets on their adjacent gauge qubits,
    so matter X picks up the adjacent gauge X pattern and gauge Z picks up
    the adjacent matter Z pattern; matter Z and gauge X are untouched.
    Every Gauss-law generator maps to its bare single-site matter X.
    """
    qm = model.matter_q
    t = model.n_constraints
    if op.dim != model.dim or op.q != qm + t:
        raise ValueError("operator does not live on the enlarged lattice")
    eta = model.constraint_map
    x_matter, x_gauge = op.x_block[:qm], op.x_block[qm:]
    z_matter, z_gauge = op.z_block[:qm], op.z_block[qm:]
    x_gauge = tuple(a + b for a, b in zip(x_gauge, eta.dagger().apply(x_matter)))
    z_matter = tuple(a + b for a, b in zip(z_matter, eta.apply(z_gauge)))
    return PauliColumn(op.dim, op.q, x_matter + x_gauge, z_matter + z_gauge)
