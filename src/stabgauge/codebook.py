"""Built-in example codes and the JSON exchange format."""

from __future__ import annotations

import itertools
import json
import re

from .cluster import build_cluster
from .gauging import symmetry_model_from_code
from .pauli import CodeSpec, GeneratorMap
from .poly import LaurentPoly, parse_poly

_GEN_TORIC_RE = re.compile(r"^generalized_toric\((\d+),\s*(\d+)\)$")


# name -> (dim, X-sector rows, Z-sector rows, notes): one list of polynomial
# texts per qubit type, one text per generator type; [[]] is an empty sector
_CSS = {
    "toric2d": (2, [["x + x*y"], ["y + x*y"]], [["1 + x"], ["1 + y"]],
                "2D toric code: vertex X stars and plaquette Z loops"),
    "cubic": (3, [["x + y + z + x*y*z"], ["1 + y + x*y + y*z"]],
              [["x + z + x*z + x*y*z"], ["1 + x*y + x*z + y*z"]],
              "3D cubic code: two qubits per site, 8-corner X and Z generators"),
    "ising2d": (2, [[]], [["1 + y", "1 + x"]],
                "2D nearest-neighbour ZZ bond model; global X symmetry"),
    "fractal_ising": (3, [[]], [["1 + x*y + x*z + y*z", "x + z + x*z + x*y*z"]],
                      "four-body ZZZZ corner model with fractal X symmetries"),
}


def _css_code(name: str) -> CodeSpec:
    dim, x_rows, z_rows, notes = _CSS[name]
    sigma_x, sigma_z = (GeneratorMap(dim, [[parse_poly(t, dim) for t in row] for row in rows])
                        for rows in (x_rows, z_rows))
    return CodeSpec(name, True, sigma_x, sigma_z, notes=notes)


def generalized_toric(d: int, k: int) -> CodeSpec:
    """Hypercubic code with qubits on k-cells, X stabilizers on (k-1)-cells
    and Z stabilizers on (k+1)-cells."""
    if not (2 <= d <= 3):
        raise ValueError("generalized toric codes are built for d in {2, 3}")
    if not (1 <= k <= d - 1):
        raise ValueError(f"k must satisfy 1 <= k <= d-1, got k={k} for d={d}")

    def cells(size: int) -> list[frozenset[int]]:
        return [frozenset(c) for c in itertools.combinations(range(d), size)]

    def incidence(sign: int) -> GeneratorMap:
        # a k-cell and a (k + sign)-cell are incident when they differ in one
        # axis a, with entry 1 + x_a^sign; other pairs differ in three or more
        def entry(diff: frozenset[int]) -> LaurentPoly:
            if len(diff) != 1:
                return LaurentPoly.zero(d)
            return LaurentPoly(d, {(0,) * d, tuple(sign * (a in diff) for a in range(d))})

        return GeneratorMap(d, [[entry(c ^ w) for w in cells(k + sign)] for c in cells(k)])

    return CodeSpec(
        name=f"generalized_toric({d},{k})",
        css=True,
        sigma_x=incidence(-1),
        sigma_z=incidence(+1),
        notes=f"{d}-dimensional hypercubic code on {k}-cells",
    )


def _cluster_from(code_name: str, out_name: str) -> CodeSpec:
    code = build_cluster(symmetry_model_from_code(get_code(code_name)), out_name)
    return CodeSpec(code.name, code.css, code.sigma_x, code.sigma_z, code.sigma,
                    notes=f"cluster model on the bipartite constraint graph of {code_name}")


_BUILDERS = {
    "cluster_toric": lambda: _cluster_from("ising2d", "cluster_toric"),
    "cluster_cubic": lambda: _cluster_from("fractal_ising", "cluster_cubic"),
}


def codebook_names() -> list[str]:
    return sorted([*_CSS, *_BUILDERS]) + ["generalized_toric(d,k)"]


def get_code(name: str) -> CodeSpec:
    """Look up a built-in code by name."""
    name = name.strip()
    if name in _CSS:
        return _css_code(name)
    if name in _BUILDERS:
        return _BUILDERS[name]()
    m = _GEN_TORIC_RE.match(name)
    if m:
        return generalized_toric(int(m.group(1)), int(m.group(2)))
    raise KeyError(f"unknown code {name!r}; known: {', '.join(codebook_names())}")


def _poly_to_json(p: LaurentPoly) -> list[list[int]]:
    return [list(t) for t in p.sorted_terms()]


def _require_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _require_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _require_int(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be at least {minimum}, got {value}")
    return value


def _require_field(obj: dict, key: str, where: str = ""):
    if key not in obj:
        raise ValueError(f"{where}missing field {key!r}")
    return obj[key]


def _poly_from_json(data, dim: int, what: str) -> LaurentPoly:
    terms = []
    for t in _require_list(data, what):
        _require_list(t, f"exponent vector in {what}")
        if len(t) != dim:
            raise ValueError(f"exponent vector {t} does not match dim {dim}")
        terms.append(tuple(_require_int(e, f"exponent in {what}") for e in t))
    return LaurentPoly.from_terms(dim, terms)


def _block_from_json(gen: dict, key: str, dim: int, g: int) -> list[LaurentPoly]:
    what = f"generator {g} {key}"
    block = _require_field(gen, key, f"generator {g}: ")
    return [_poly_from_json(p, dim, what) for p in _require_list(block, what)]


def code_to_dict(code: CodeSpec) -> dict:
    full = code.full_sigma()
    q = code.q_per_site
    generators = []
    for j in range(full.cols):
        col = full.column(j)
        generators.append(
            {
                "x_block": [_poly_to_json(p) for p in col[:q]],
                "z_block": [_poly_to_json(p) for p in col[q:]],
            }
        )
    out = {
        "name": code.name,
        "dim": code.dim,
        "q_per_site": q,
        "css": code.css,
        "generators": generators,
        "notes": code.notes,
    }
    # only an all-zero generator can make the reader's sector guess wrong
    if code.css and not all(any(full.column(j)) for j in range(full.cols)):
        out["n_x_types"] = code.n_x_types
    return out


def code_from_dict(data: dict) -> CodeSpec:
    """Read the JSON exchange format, rejecting malformed input with ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a code must be a JSON object")
    dim = _require_int(_require_field(data, "dim"), "dim", 1)
    q = _require_int(_require_field(data, "q_per_site"), "q_per_site", 1)
    css = _require_field(data, "css")
    if not isinstance(css, bool):
        raise ValueError(f"css must be true or false, got {css!r}")
    name = _require_str(data.get("name", "unnamed"), "name")
    notes = _require_str(data.get("notes", ""), "notes")
    cols = []
    for g, gen in enumerate(_require_list(_require_field(data, "generators"), "generators")):
        if not isinstance(gen, dict):
            raise ValueError(f"generator {g} must be a JSON object")
        x = _block_from_json(gen, "x_block", dim, g)
        z = _block_from_json(gen, "z_block", dim, g)
        if len(x) != q or len(z) != q:
            raise ValueError("generator block length does not match q_per_site")
        cols.append(tuple(x + z))
    if not css:
        if "n_x_types" in data:
            raise ValueError("n_x_types is only valid for a CSS code")
        return CodeSpec(
            name=name, css=False, sigma=GeneratorMap.from_columns(dim, 2 * q, cols), notes=notes,
        )
    if "n_x_types" in data:
        # the first n_x_types generators are the X sector, the rest the Z sector
        n_x = _require_int(data["n_x_types"], "n_x_types", 0)
        if n_x > len(cols):
            raise ValueError(f"n_x_types must be at most {len(cols)}, got {n_x}")
        for g, c in enumerate(cols):
            if any(c[q:] if g < n_x else c[:q]):
                part = "a Z" if g < n_x else "an X"
                raise ValueError(f"n_x_types is {n_x}, but generator {g} has {part} part")
        x_cols, z_cols = [c[:q] for c in cols[:n_x]], [c[q:] for c in cols[n_x:]]
    else:
        # X generators are written first, so in a file with any X generator
        # an all-zero generator that no Z generator precedes is an X generator
        has_x = any(any(c[:q]) for c in cols)
        x_cols, z_cols = [], []
        for c in cols:
            if any(c[:q]) or (has_x and not z_cols and not any(c[q:])):
                if any(c[q:]):
                    raise ValueError("CSS file contains a mixed generator")
                x_cols.append(c[:q])
            else:
                z_cols.append(c[q:])
    return CodeSpec(
        name=name, css=True, sigma_x=GeneratorMap.from_columns(dim, q, x_cols),
        sigma_z=GeneratorMap.from_columns(dim, q, z_cols), notes=notes,
    )


def dumps_code(code: CodeSpec) -> str:
    return json.dumps(code_to_dict(code), indent=2, sort_keys=True) + "\n"


def loads_code(text: str) -> CodeSpec:
    return code_from_dict(json.loads(text))
