import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stabgauge
from stabgauge import smallscale as smallscale_mod
from stabgauge import torus as torus_mod
from stabgauge.cli import COMMANDS, build_parser, cli_main, parse_plain
from stabgauge.codebook import dumps_code, get_code, loads_code
from stabgauge.pauli import CodeSpec, GeneratorMap
from stabgauge.poly import LaurentPoly


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_codebook_passes(capsys):
    code, out, _ = run(capsys, "verify", "cubic")
    assert code == 0
    assert "commuting" in out


def test_verify_corrupted_file_exits_1(tmp_path, capsys):
    data = json.loads(dumps_code(get_code("toric2d")))
    # corrupt a Z generator so translates no longer commute
    data["generators"][1]["z_block"] = [[[1, 0]], [[1, 0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "NOT commuting" in out


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "toric2d", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "missing.json")
    assert code == 2


def test_unreadable_code_path_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "verify", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot read code file {tmp_path}: Is a directory\n"


def test_bad_arguments_exit_2(capsys):
    assert cli_main(["logical", "toric2d"]) == 2
    assert cli_main(["nonsense"]) == 2


@pytest.mark.parametrize("command", [
    ["render", "cubic"], ["codebook", "list"], ["gauge", "ising2d"], ["ungauge", "toric2d"],
    ["cluster", "ising2d"],
])
def test_commands_without_json_output_reject_the_flag(capsys, command):
    code, out, err = run(capsys, *command, "--json")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --json" in err


# help, usage errors (an unknown command, a missing required option, an
# unrecognized `--cap`), valid commands, with repeats
MIXED = [
    ["--help"],
    ["nonsense"],
    ["logical", "toric2d"],
    ["verify", "toric2d", "--json"],
    ["logical", "toric2d", "--lengths", "3,3", "--json"],
    ["smallscale", "--model", "ising2d", "--lengths", "2,2", "--cap", "5"],
    ["--help"],
    ["logical", "toric2d"],
]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_answers_as_a_fresh_one(capsys):
    reused = [run(capsys, *argv) for argv in MIXED]
    alone = []
    for argv in MIXED:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert reused == alone
    assert [code for code, _, _ in reused] == [0, 2, 2, 0, 0, 2, 0, 2]
    assert reused[0][1].startswith("usage: stabgauge")


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


def _table_words(specs):
    """A table entry's own tokens, their prefixes and near misses."""
    options, values = set(), set()
    for name, kwargs in specs:
        values.update(str(c) for c in kwargs.get("choices", ()))
        if name.startswith("-"):
            options.update(name[:k] for k in range(3, len(name) + 1))
            options.update(f"{name}={v}" for v in ("4,4,4", "all", ""))
        else:
            values.add(name)
    return sorted(options), sorted(values)


OPTIONS = sorted({"--", "-h", "--help"}.union(
    *(_table_words(specs)[0] for _, specs in COMMANDS.values())))
VALUES = sorted({"", "-5", "5", "x", "4,4,4", "cubic", "nope"}.union(
    COMMANDS, *(_table_words(specs)[1] for _, specs in COMMANDS.values())))


def _group(name, kwargs):
    """The words one spec adds to a line argparse accepts."""
    if kwargs.get("action") == "store_true":
        return st.sampled_from([[], [name]])
    if "choices" in kwargs:
        value = st.sampled_from([str(c) for c in kwargs["choices"]])
    elif kwargs.get("type") is int:
        value = st.sampled_from(["5", "+24", " 7"])
    else:
        value = st.sampled_from(["cubic", "4,4,4", "", "x y"])
    words = value.map(lambda v: [name, v] if name.startswith("-") else [v])
    required = kwargs.get("required", kwargs.get("nargs") != "?" and not name.startswith("-"))
    return words if required else st.one_of(st.just([]), words)


def _edit(line, edits):
    """Insert a token at, or (for None) delete the token at, each index."""
    line = list(line)
    for i, word in edits:
        i = min(i, len(line))
        if word is not None:
            line.insert(i, word)
        elif i < len(line):
            del line[i]
    return line


def _line(command):
    """A line argparse accepts, in any order of its groups, then up to two edits."""
    groups = st.tuples(*(_group(name, kwargs) for name, kwargs in COMMANDS[command][1]))
    line = groups.flatmap(st.permutations).map(lambda gs: [command] + [w for g in gs for w in g])
    word = st.one_of(st.none(), st.sampled_from(OPTIONS + VALUES))
    return st.tuples(line, st.lists(st.tuples(st.integers(0, 8), word), max_size=2)).map(
        lambda pair: _edit(*pair))


ARGV = st.one_of(
    st.sampled_from(sorted(COMMANDS)).flatmap(_line),
    st.lists(st.sampled_from(OPTIONS + VALUES), max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(argv=ARGV)
def test_plain_parser_agrees_with_argparse(argv):
    # the plain parser either declines (argparse then parses) or gives
    # argparse's exact namespace; it must decline every line argparse refuses
    plain = parse_plain(argv)
    expected = _argparse_vars(argv)
    if expected is None:
        assert plain is None
    elif plain is not None:
        assert vars(plain) == expected


def test_plain_parser_takes_every_golden_case():
    cases = json.loads((Path(__file__).with_name("data") / "cli_golden.json").read_text())
    for case in cases:
        plain = parse_plain(case["argv"])
        assert plain is not None and vars(plain) == _argparse_vars(case["argv"]), case["argv"]


@pytest.mark.parametrize("fallback, plain", [
    (["logical", "cubic", "--len", "4,4,4", "--json"],
     ["logical", "cubic", "--lengths", "4,4,4", "--json"]),
    (["logical", "cubic", "--lengths=4,4,4", "--json"],
     ["logical", "cubic", "--lengths", "4,4,4", "--json"]),
    # argparse keeps the last of a repeated option
    (["kernel", "ising2d", "--box", "3,3", "--box", "1,1", "--json"],
     ["kernel", "ising2d", "--box", "1,1", "--json"]),
])
def test_fallback_lines_answer_as_their_plain_form(capsys, fallback, plain):
    assert parse_plain(fallback) is None and parse_plain(plain) is not None
    assert run(capsys, *fallback) == run(capsys, *plain)


def test_negative_lengths_reach_the_command_through_argparse(capsys):
    argv = ["logical", "toric2d", "--lengths", "-5"]
    assert parse_plain(argv) is None
    assert run(capsys, *argv) == (2, "", "error: all torus lengths must be >= 2\n")


def test_smallscale_takes_no_qubit_cap(capsys):
    # no check enumerates states, so no option bounds the lattice size
    code, out, _ = run(capsys, "smallscale", "--help")
    assert code == 0 and "--cap" not in out
    code, out, err = run(capsys, "smallscale", "--model", "fractal_ising", "--lengths", "2,2,2",
                         "--cap", "24")
    assert (code, out) == (2, "") and "unrecognized arguments: --cap 24" in err


def test_codebook_dump_without_a_name_exits_2(capsys):
    # the name is an optional positional, so the line is plain; the command refuses it
    assert parse_plain(["codebook", "dump"]) is not None
    assert run(capsys, "codebook", "dump") == (2, "", "error: codebook dump needs a name\n")


def test_every_command_help_comes_from_argparse(capsys):
    for command in COMMANDS:
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and out.startswith(f"usage: stabgauge {command} [-h]")


def test_duality_check_toric(capsys):
    code, out, _ = run(capsys, "duality-check", "toric2d")
    assert code == 0
    assert "pass" in out


def test_logical_counts(capsys):
    for L in (2, 3, 4):
        code, out, _ = run(capsys, "logical", "toric2d", "--lengths", f"{L},{L}", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k_encoded"] == 2
        assert payload["logical_operator_gap"] == 4


def test_kernel_command_with_certification(capsys):
    code, out, _ = run(capsys, "kernel", "ising2d", "--box", "1,1", "--certify", "6,6")
    assert code == 0
    assert "1 kernel generator" in out
    assert "pass" in out


def test_gauge_command_emits_toric(capsys):
    code, out, _ = run(capsys, "gauge", "ising2d")
    assert code == 0
    gauged = loads_code(out)
    from stabgauge.pauli import maps_equal_up_to_translation

    toric = get_code("toric2d")
    assert maps_equal_up_to_translation(gauged.sigma_x, toric.sigma_x)
    assert maps_equal_up_to_translation(gauged.sigma_z, toric.sigma_z)


def test_ungauge_command(capsys):
    code, out, _ = run(capsys, "ungauge", "cubic")
    assert code == 0
    matter = loads_code(out)
    assert matter.q_per_site == 1
    assert matter.n_z_types == 2


def test_cluster_command(capsys):
    code, out, _ = run(capsys, "cluster", "ising2d")
    assert code == 0
    spec = loads_code(out)
    assert spec.q_per_site == 3 and not spec.css


def test_cluster_gauge_sublattice(capsys):
    code, out, _ = run(capsys, "cluster", "ising2d", "--gauge-sublattice", "both")
    assert code == 0
    spec = loads_code(out)
    assert spec.q_per_site == 3
    assert spec.name == "cluster_ising2d-both-gauged"


def test_render_command(capsys):
    code, out, _ = run(capsys, "render", "toric2d")
    assert code == 0
    assert "generator 0" in out


def test_codebook_list_and_dump(capsys):
    code, out, _ = run(capsys, "codebook", "list")
    assert code == 0
    assert "cubic" in out.split()
    code, out, _ = run(capsys, "codebook", "dump", "ising2d")
    assert code == 0
    assert loads_code(out).name == "ising2d"


def test_unknown_codebook_entry_message_is_unquoted(capsys):
    code, _, err = run(capsys, "codebook", "dump", "nosuch")
    assert code == 2
    assert err.startswith("error: unknown code 'nosuch'")


def test_smallscale_command(capsys):
    code, out, _ = run(
        capsys, "smallscale", "--model", "ising2d", "--lengths", "2,2", "--check", "lemma2"
    )
    assert code == 0
    assert "pass" in out


def test_generalized_toric_via_cli(capsys):
    code, out, _ = run(capsys, "verify", "generalized_toric(3,2)")
    assert code == 0



MALFORMED = [
    (["generators"], {"x_block": []}, "generators must be a list, got dict"),
    (["generators"], [[1, 0]], "generator 0 must be a JSON object"),
    (["generators", 0, "x_block"], {"a": 1}, "generator 0 x_block must be a list, got dict"),
    (["generators", 0, "x_block", 0], 7, "generator 0 x_block must be a list, got int"),
    (["generators", 0, "x_block", 0], [1], "exponent vector in generator 0 x_block must be a list"),
    (["generators", 0, "x_block", 0], [[0.5, 0]], "must be an integer, got 0.5"),
    (["generators", 0, "x_block", 0], [["1", 0]], "must be an integer, got '1'"),
    (["generators", 0, "x_block", 0], [[True, 0]], "must be an integer, got True"),
    (["css"], 1, "css must be true or false, got 1"),
    (["dim"], 0, "dim must be at least 1, got 0"),
    (["dim"], "2", "dim must be an integer, got '2'"),
    (["q_per_site"], 0, "q_per_site must be at least 1, got 0"),
    (["name"], [1], "name must be a string, got list"),
    (["notes"], {"a": 1}, "notes must be a string, got dict"),
    (["n_x_types"], True, "n_x_types must be an integer, got True"),
    (["n_x_types"], -1, "n_x_types must be at least 0, got -1"),
    (["n_x_types"], 3, "n_x_types must be at most 2, got 3"),
    (["n_x_types"], 0, "n_x_types is 0, but generator 0 has an X part"),
    (["n_x_types"], 2, "n_x_types is 2, but generator 1 has a Z part"),
]


@pytest.mark.parametrize("path, value, message", MALFORMED, ids=[m for _, _, m in MALFORMED])
def test_malformed_code_file_exits_2(tmp_path, capsys, path, value, message):
    data = json.loads(dumps_code(get_code("toric2d")))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(file))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot parse code file {file}: ")
    assert message in err


MISSING = [
    (["dim"], "missing field 'dim'"),
    (["q_per_site"], "missing field 'q_per_site'"),
    (["css"], "missing field 'css'"),
    (["generators"], "missing field 'generators'"),
    (["generators", 0, "x_block"], "generator 0: missing field 'x_block'"),
    (["generators", 1, "z_block"], "generator 1: missing field 'z_block'"),
]


@pytest.mark.parametrize("path, message", MISSING, ids=[m for _, m in MISSING])
def test_missing_field_exits_2_naming_it(tmp_path, capsys, path, message):
    data = json.loads(dumps_code(get_code("toric2d")))
    target = data
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    file = tmp_path / "bad.json"
    file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(file))
    assert code == 2 and out == ""
    assert err == f"error: cannot parse code file {file}: {message}\n"


def _write_code(tmp_path, generators, dim=1, q=1):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(
        {"name": "c", "dim": dim, "q_per_site": q, "css": True, "generators": generators}
    ))
    return str(path)


def test_smallscale_over_63_qubits_runs(tmp_path, capsys):
    # Z constraints 1 + x on one qubit type: 15 of them on a length-4 circle
    # need 64 qubits, 20 on a length-3 circle need 63
    bond = {"x_block": [[]], "z_block": [[[0], [1]]]}
    code, out, err = run(capsys, "smallscale", "--model", _write_code(tmp_path, [bond] * 15),
                         "--lengths", "4", "--check", "lemma2")
    assert code == 0 and err == ""
    assert out.startswith("gram-vs-symmetric-projector: pass")
    code, out, _ = run(capsys, "smallscale", "--model", _write_code(tmp_path, [bond] * 20),
                       "--lengths", "3", "--check", "lemma2")
    assert code == 0 and out.startswith("gram-vs-symmetric-projector: pass")


def test_smallscale_groundspace_failure_names_its_flags(tmp_path, capsys):
    # 1 + x^2 on a length-3 circle: every dimension agrees with the gauged
    # basis, but the local fields are not exact in windowed form
    fold = {"x_block": [[]], "z_block": [[[0], [2]]]}
    code, out, _ = run(capsys, "smallscale", "--model", _write_code(tmp_path, [fold]),
                       "--lengths", "3")
    assert code == 1
    assert out.splitlines()[-1] == (
        "groundspace-span: FAIL (flat-sector dim 4, gauged-basis rank 4, holonomy sectors 2, "
        "local-field ground dim 8; contained=True, local_exactness=False)")
    assert all(": pass " in line for line in out.splitlines()[:-1])


def test_duality_check_passes_on_gauged_code_with_a_free_matter_type(tmp_path, capsys):
    # ising2d bonds on matter type 0 only: the gauged code has an all-zero X generator
    bonds = [{"x_block": [[], []], "z_block": [[[0, 0], [1, 0]], []]},
             {"x_block": [[], []], "z_block": [[[0, 0], [0, 1]], []]}]
    code, gauged, _ = run(capsys, "gauge", _write_code(tmp_path, bonds, dim=2, q=2))
    assert code == 0
    path = tmp_path / "gauged.json"
    path.write_text(gauged)
    code, out, _ = run(capsys, "duality-check", str(path))
    assert code == 0, out
    assert "pass" in out


@pytest.mark.parametrize("dim, q, lengths, k", [(1, 1, "4", 4), (2, 2, "3,3", 18)])
def test_logical_on_code_without_generators(tmp_path, capsys, dim, q, lengths, k):
    # every qubit is logical: k = Q * N and the gap is 2k
    path = _write_code(tmp_path, [], dim=dim, q=q)
    code, out, err = run(capsys, "logical", path, "--lengths", lengths, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["k_encoded"] == k
    assert payload["logical_operator_gap"] == 2 * k


def test_kernel_on_code_without_generators_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "kernel", _write_code(tmp_path, []))
    assert code == 2 and out == ""
    assert err == "error: code has no generators\n"


@pytest.mark.parametrize("sector, message", [
    ("x_block", "duality check needs Z stabilizers"),
    ("z_block", "code has no X stabilizers to ungauge"),
])
def test_duality_check_on_single_sector_code_exits_2(tmp_path, capsys, sector, message):
    # one generator 1 + x, all in one sector
    gen = {"x_block": [[]], "z_block": [[]]}
    gen[sector] = [[[0], [1]]]
    code, out, err = run(capsys, "duality-check", _write_code(tmp_path, [gen]))
    assert code == 2 and out == ""
    assert message in err


def test_duality_check_on_anticommuting_css_code_exits_2(tmp_path, capsys):
    one = LaurentPoly.one(1)
    bad = CodeSpec(
        name="xz-css", css=True,
        sigma_x=GeneratorMap(1, ((one,),)), sigma_z=GeneratorMap(1, ((one,),)),
    )
    path = tmp_path / "xz.json"
    path.write_text(dumps_code(bad))
    code, out, err = run(capsys, "duality-check", str(path))
    assert code == 2 and out == ""
    assert "code is not commuting" in err


def test_logical_ranks_sigma_once(monkeypatch, capsys):
    # a CSS code ranks sigma_x and sigma_z apart, once each on the asked
    # torus; neither the full sigma nor epsilon is ranked.  Each rank that
    # misses the memo instantiates its map once, through the torus module
    code = get_code("cubic")
    instantiate = torus_mod.instantiate
    ranked = []

    def counting_instantiate(m, shape):
        ranked.append((m, shape.lengths))
        return instantiate(m, shape)

    monkeypatch.setattr(torus_mod, "instantiate", counting_instantiate)
    rc, out, _ = run(capsys, "logical", "cubic", "--lengths", "4,4,4", "--json")
    assert rc == 0
    assert json.loads(out)["logical_operator_gap"] == 28
    sectors = [code.sigma_x.dagger(), code.sigma_z.dagger()]
    assert [m for m, lengths in ranked if lengths == (4, 4, 4)] == sectors
    # the certification torus, if its memo is cold, ranks sigma_x alone
    assert all(m in sectors for m, _ in ranked)


def test_smallscale_all_builds_each_gauged_image_on_one_lattice(monkeypatch, capsys):
    # G is three ints, so each gauged image (two intertwining reports and one
    # matrix-elements report) starts from its own build_G; all share one lattice
    build_G = smallscale_mod.build_G
    built = []

    def counting_build(lat):
        built.append(lat)
        return build_G(lat)

    monkeypatch.setattr(smallscale_mod, "build_G", counting_build)
    code, _, _ = run(capsys, "smallscale", "--model", "ising2d", "--lengths", "2,2", "--check", "all")
    assert code == 0
    assert len(built) == 3 and all(lat is built[0] for lat in built)


def test_cli_never_imports_numpy():
    # the dense checks run on Python ints, so neither importing the CLI nor
    # running every dense check may load numpy, a test-only dependency; the
    # value classes are written out, so neither loads dataclasses or inspect,
    # and a plain command line is parsed without argparse (and its gettext),
    # all of which every process would pay for at start-up
    script = (
        "import contextlib, io, sys\n"
        "from stabgauge.cli import cli_main\n"
        "heavy = {'numpy', 'dataclasses', 'inspect', 'argparse', 'gettext'}\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli_main(['smallscale', '--model', 'ising2d', '--lengths', '2,2',"
        " '--check', 'all', '--json'])\n"
        "assert code == 0, code\n"
        "assert not heavy & set(sys.modules), heavy & set(sys.modules)\n"
    )
    src = str(Path(stabgauge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # help still comes from argparse, in a fresh process too
    result = subprocess.run([sys.executable, "-m", "stabgauge.cli", "--help"], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0 and result.stdout.startswith("usage: stabgauge"), result.stderr
