"""Golden CLI outputs: exit code, stderr and a sha256 of stdout per case.

The data file was recorded before the library's duplicated helpers were
merged (the 18-qubit `smallscale` case before the dense checks were
restricted to the reachable basis rows; the per-check `smallscale` cases,
its cap refusal and the `duality-check` and `logical` cases before every
dense check took one shared lattice; the `kernel --certify` cases before
the certificate restricted its window by a column mask and stopped
recording certified tori on the kernel basis; the `kernel` and `gauge` cases
with boxes wider than the default before kernel search placed each candidate
once instead of instantiating all its translates), so any change to what the CLI
prints shows up here.  The exit-0 `cluster --gauge-sublattice` cases were
re-recorded once, when their output `name` changed from
`cluster-<which>-gauged` to `cluster_<code>-<which>-gauged`.  Cases that take longer than about half a second
(such as `gauge` on the 3D codes) are left out to keep the suite fast.  The floating-point `max deviation`
figures of `smallscale` are masked before hashing.

Regenerate the data file (only after an intended output change) with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stabgauge.cli import cli_main
from stabgauge.codebook import get_code

DATA = Path(__file__).with_name("data") / "cli_golden.json"

CODES = [
    "cluster_cubic", "cluster_toric", "cubic", "fractal_ising", "ising2d", "toric2d",
    "generalized_toric(2,1)", "generalized_toric(3,1)", "generalized_toric(3,2)",
]
COMMANDS = [
    ["verify"], ["render"], ["ungauge"], ["gauge"], ["kernel", "--json"], ["cluster"],
    ["cluster", "--gauge-sublattice", "matter"],
    ["cluster", "--gauge-sublattice", "gauge"],
    ["cluster", "--gauge-sublattice", "both"],
]
CSS_CODES = [c for c in CODES if get_code(c).css]
SLOW = {("gauge", c) for c in ("cubic", "fractal_ising", "generalized_toric(3,1)",
                               "generalized_toric(3,2)")}
CASES = [
    [cmd[0], code] + cmd[1:] for code in CODES for cmd in COMMANDS
    if (cmd[0], code) not in SLOW
] + [
    ["smallscale", "--model", model, "--lengths", lengths, "--check", "all", "--json"]
    for model, lengths in (("ising2d", "2,2"), ("toric2d", "2,2"), ("ising2d", "3,2"))
] + [
    ["smallscale", "--model", "ising2d", "--lengths", "2,2", "--check", check, "--json"]
    for check in ("lemma2", "lemma3", "claim1", "elements", "groundspace")
] + [
    ["smallscale", "--model", "ising2d", "--lengths", "2,2", "--cap", "5"],
] + [
    case for code in CODES for case in (
        ["duality-check", code, "--json"],
        ["logical", code, "--lengths", ",".join(["4"] * get_code(code).dim), "--json"],
    )
] + [
    ["kernel", code, "--certify", ",".join(["6"] * get_code(code).dim)] + fmt
    for code in CSS_CODES for fmt in ([], ["--json"])
] + [
    # an undersized box: the unspanned count depends on the window-local basis
    ["kernel", "generalized_toric(3,1)", "--box", "1,1,0", "--certify", "6,6,6"] + fmt
    for fmt in ([], ["--json"])
] + [
    ["kernel", "ising2d", "--box", "0,0", "--certify", "6,6", "--json"],
] + [
    # boxes wider than each map's support: more candidates and in-box shifts
    ["kernel", code, "--box", box, "--json"]
    for code, box in (("fractal_ising", "2,2,2"), ("cubic", "2,2,2"),
                      ("generalized_toric(3,1)", "2,2,2"), ("ising2d", "3,3"))
] + [
    ["kernel", "toric2d", "--box", "2,2", "--certify", "8,8", "--json"],
    ["gauge", "fractal_ising", "--box", "2,2,2"],
]

_DEVIATION = re.compile(r"max deviation [^;]*;")


def run_case(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    stdout = _DEVIATION.sub("max deviation <masked>;", out.getvalue())
    return {
        "argv": list(argv),
        "exit": code,
        "stderr": err.getvalue(),
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stdout": stdout,
    }


def _golden() -> dict:
    return {tuple(case["argv"]): case for case in json.loads(DATA.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv):
    want = _golden()[tuple(argv)]
    got = run_case(argv)
    assert (got["exit"], got["stderr"], got["stdout_sha256"]) == (
        want["exit"], want["stderr"], want["stdout_sha256"]
    ), f"output of {' '.join(argv)} changed; actual stdout:\n{got['stdout']}"


if __name__ == "__main__":
    cases = [run_case(argv) for argv in CASES]
    for case in cases:
        del case["stdout"]
    DATA.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {DATA}")
