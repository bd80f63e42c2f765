"""Command-line interface.

Exit codes: 0 = success / check passed, 1 = a check failed,
2 = usage or input error.  Every input error reaches `cli_main` as a
`KeyError` or `ValueError`, which it prints as one `error: ` line.

The CLI's surface is one table, `COMMANDS`: each command's help and its
`add_argument` specs, `--json` included where the command takes it.  Two
parsers read it.  `parse_plain` handles a plain command line (exact
command and option names, no value starting with "-", every choice
valid, every required argument given) and returns the namespace
argparse would give, or None for anything else.  On None, `cli_main`
falls back to `build_parser()`, which builds the argparse parser from the
same table, once per process, and imports `argparse` inside itself: help,
usage errors, abbreviations, `--opt=value`, `--` and negative numbers get
argparse's own output and exit codes, while neither importing this module
nor running a plain command loads `argparse`.  Commands are dispatched by
name: `cli_main` looks up `cmd_<command>` (with `-` read as `_`) in this
module at call time, so a rebinding of `cmd_*` takes effect on the next
call.
"""

from __future__ import annotations

import functools
import json
import sys
from types import SimpleNamespace

from . import cluster as cluster_mod
from . import smallscale as smallscale_mod
from .codebook import codebook_names, dumps_code, get_code, loads_code
from .gauging import double_gauge_check, gauge, symmetry_model_from_code, ungauge_css
from .pauli import CodeSpec, GeneratorMap, PauliColumn, render_diagram, verify_stabilizer
from .syzygy import bounded_kernel, certification_lengths, certify_on_torus
from .torus import count_logical, shape_of

PASS = 0
FAIL = 1
USAGE = 2


def _load(path: str) -> CodeSpec:
    try:
        return get_code(path)
    except KeyError:
        pass
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads_code(fh.read())
    except FileNotFoundError:
        raise ValueError(f"no such file or codebook entry: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read code file {path}: {exc.strerror}")
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cannot parse code file {path}: {exc}")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def cmd_verify(args) -> int:
    code = _load(args.code)
    report = verify_stabilizer(code)
    if args.json:
        witness = None
        if report.witness:
            t, u, p = report.witness
            witness = {"row": t, "col": u, "polynomial": str(p)}
        _emit({"code": code.name, "passed": report.passed, "witness": witness})
    else:
        print(f"{code.name}: {report}")
    return PASS if report.passed else FAIL


def cmd_render(args) -> int:
    code = _load(args.code)
    print(f"{code.name} (dim {code.dim}, {code.q_per_site} qubits/site)")
    print(render_diagram(code.full_sigma()))
    return PASS


def cmd_codebook(args) -> int:
    if args.action == "list":
        for name in codebook_names():
            print(name)
        return PASS
    if not args.name:
        raise ValueError("codebook dump needs a name")
    print(dumps_code(get_code(args.name)), end="")
    return PASS


def cmd_logical(args) -> int:
    code = _load(args.code)
    shape = shape_of(_parse_ints(args.lengths))
    report = count_logical(code, shape)
    if args.json:
        payload = report._asdict()
        del payload["shape"]
        _emit({**payload, "code": code.name, "lengths": list(shape.lengths),
               "logical_operator_gap": 2 * report.k_encoded})
    else:
        print(
            f"{code.name} on {shape.lengths}: k = {report.k_encoded} "
            f"(n = {report.n_qubits}, rank = {report.stab_rank}, "
            f"gap = {2 * report.k_encoded}, bulk = {report.bulk_term}, c = {report.c_constant})"
        )
    return PASS


def cmd_kernel(args) -> int:
    code = _load(args.code)
    model = symmetry_model_from_code(code)
    box = _parse_ints(args.box) if args.box else None
    kb = bounded_kernel(model.constraint_map, box)
    lines = [f"{len(kb.generators)} kernel generator(s) in box {kb.box}:"]
    for g in kb.generators:
        lines.append("  (" + ", ".join(str(p) for p in g) + ")")
    ok = True
    certified = []
    if args.certify:
        rep = certify_on_torus(kb, _parse_ints(args.certify))
        lines.append(str(rep))
        ok = rep.passed
        certified = [list(rep.lengths)] if ok else []
    if args.json:
        _emit({
            "generators": [[str(p) for p in g] for g in kb.generators],
            "box": list(kb.box),
            "certified_tori": certified,
            "passed": ok,
        })
    else:
        print("\n".join(lines))
    return PASS if ok else FAIL


def cmd_gauge(args) -> int:
    code = _load(args.code)
    model = symmetry_model_from_code(code)
    box = _parse_ints(args.box) if args.box else None
    gauged, mu = gauge(model, box)
    cert = certify_on_torus(mu, certification_lengths(mu))
    out = dumps_code(gauged)
    if not cert.passed:
        print("warning: kernel certification inconclusive; enlarge --box", file=sys.stderr)
    print(out, end="")
    return PASS if cert.passed else FAIL


def cmd_ungauge(args) -> int:
    code = _load(args.code)
    model = ungauge_css(code)
    eta = model.constraint_map
    matter = CodeSpec(
        name=f"{code.name}-ungauged",
        css=True,
        sigma_x=GeneratorMap.zero(eta.dim, eta.rows, 0),
        sigma_z=eta,
        notes=model.notes,
    )
    print(dumps_code(matter), end="")
    return PASS


def cmd_duality_check(args) -> int:
    code = _load(args.code)
    report = double_gauge_check(code)
    if args.json:
        _emit({"code": code.name, **report._asdict()})
    else:
        print(f"{code.name}: {report}")
    return PASS if report.passed else FAIL


def cmd_cluster(args) -> int:
    code = _load(args.code)
    model = symmetry_model_from_code(code)
    name = f"cluster_{code.name}"
    if args.gauge_sublattice:
        out = cluster_mod.gauge_sublattice(model, args.gauge_sublattice, name)
    else:
        out = cluster_mod.build_cluster(model, name)
    print(dumps_code(out), end="")
    return PASS


def cmd_smallscale(args) -> int:
    code = _load(args.model)
    model = symmetry_model_from_code(code)
    shape = shape_of(_parse_ints(args.lengths))
    single_x = PauliColumn.single_x(model.dim, model.matter_q, 0)
    bond = PauliColumn(model.dim, model.matter_q, single_x.z_block,
                       model.constraint_map.column(0))
    lat = smallscale_mod.DenseLattice(model, shape)
    reports = []
    which = args.check
    if which in ("all", "lemma2"):
        reports.append(smallscale_mod.check_lemma2(lat))
    if which in ("all", "lemma3"):
        reports.append(smallscale_mod.check_lemma3(lat, single_x))
        reports.append(smallscale_mod.check_lemma3(lat, bond))
    if which in ("all", "claim1"):
        reports.append(smallscale_mod.check_claim1(lat, single_x))
        reports.append(smallscale_mod.check_claim1(lat, bond))
    if which in ("all", "elements"):
        reports.append(smallscale_mod.check_matrix_elements(lat, single_x))
    if which in ("all", "groundspace"):
        reports.append(smallscale_mod.check_groundspace_span(lat))
    ok = all(r.passed for r in reports)
    if args.json:
        _emit([str(r) for r in reports])
    else:
        for r in reports:
            print(r)
    return PASS if ok else FAIL


# The CLI's surface, read by both parsers: command -> (help, add_argument
# specs as (name or flag, keyword arguments)).  A command takes --json when
# its specs hold _JSON.
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_CODE = ("code", {})
COMMANDS = {
    "verify": ("check that all stabilizer translates commute",
               [_JSON, ("code", {"help": "code file or codebook name"})]),
    "render": ("per-site letter diagram of the generators", [_CODE]),
    "codebook": ("list or dump built-in codes",
                 [("action", {"choices": ["list", "dump"]}), ("name", {"nargs": "?"})]),
    "logical": ("count encoded qubits on a torus",
                [_JSON, _CODE,
                 ("--lengths", {"required": True, "help": "comma-separated torus lengths"})]),
    "kernel": ("box-local kernel generators of the constraint map",
               [_JSON, _CODE, ("--box", {"help": "comma-separated box extents"}),
                ("--certify", {"help": "torus lengths for certification"})]),
    "gauge": ("gauge a matter model into a CSS code",
              [_CODE, ("--box", {"help": "comma-separated box extents for the kernel search"})]),
    "ungauge": ("read the matter model off a CSS code", [_CODE]),
    "duality-check": ("ungauge then regauge, both orders", [_JSON, _CODE]),
    "cluster": ("build the cluster model of a matter model",
                [_CODE, ("--gauge-sublattice", {"choices": ["matter", "gauge", "both"]})]),
    "smallscale": ("the paper's gauging lemmas as exact GF(2) checks on a torus",
                   [_JSON, ("--model", {"required": True, "help": "code file or codebook name"}),
                    ("--lengths", {"required": True}),
                    ("--check", {"default": "all", "choices": [
                        "all", "lemma2", "lemma3", "claim1", "elements", "groundspace"]})]),
}


@functools.cache
def build_parser():
    import argparse  # help and usage errors only; see the module docstring

    parser = argparse.ArgumentParser(
        prog="stabgauge",
        description="translation-invariant stabilizer models, gauging duality, exact checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, specs) in COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name, kwargs in specs:
            p.add_argument(name, **kwargs)
    return parser


def parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line, or None.

    A plain line is an exact command name, then exact long options (each
    at most once, each value not starting with "-"), flags and positionals
    not starting with "-", with every choice valid and every required
    argument given.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    specs = COMMANDS[argv[0]][1]
    spec = dict(specs)
    slots = iter(name for name, _ in specs if not name.startswith("-"))
    given = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            name = next(slots, None)
            if name is None:
                return None
        elif word in spec and word not in given:
            name = word
            if spec[name].get("action") == "store_true":
                given[name] = True
                continue
            word = next(words, "-")
            if word.startswith("-"):
                return None
        else:
            return None
        if word not in spec[name].get("choices", (word,)):
            return None
        given[name] = word
    values = {"command": argv[0]}
    for name, kwargs in specs:
        positional = not name.startswith("-")
        if name not in given and kwargs.get("required", positional and kwargs.get("nargs") != "?"):
            return None
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        values[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    return SimpleNamespace(**values)


def cli_main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE if exc.code not in (0, None) else 0
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return USAGE


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
