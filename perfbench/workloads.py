"""Workload definitions: seeded input codes, job lists and answer checks.

Every workload is a list of jobs over a handful of codebook models.  The
seed picks, per code, an axis permutation and one translation applied to
every generator column, and it picks the job order.  Neither changes the
answers, and neither changes the support extent of any map, so the work
per job stays fixed across seeds.  Independent per-column offsets are left
out on purpose: they grow the support extent and with it the default
kernel box (see README.md, "Known cliff").

The parent process writes each code through `dumps_code`, as a user's
file; the worker reads it back through `loads_code`.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("duality", "torus", "dense")
SHIFT_RANGE = 3

# A job is (id, code label, argv template).  In a template "{code}" is the
# code file and a list of ints is an axis vector, permuted with the code's
# axes.  Torus jobs use the template ("torus", lengths) instead of argv.
_DUALITY = [
    ("verify cubic", "cubic", ["verify", "{code}", "--json"]),
    ("render cubic", "cubic", ["render", "{code}"]),
    ("ungauge cubic", "cubic", ["ungauge", "{code}"]),
    ("duality-check toric2d", "toric2d", ["duality-check", "{code}", "--json"]),
    ("duality-check cubic", "cubic", ["duality-check", "{code}", "--json"]),
    ("duality-check generalized_toric(2,1)", "generalized_toric(2,1)",
     ["duality-check", "{code}", "--json"]),
    ("duality-check generalized_toric(3,1)", "generalized_toric(3,1)",
     ["duality-check", "{code}", "--json"]),
    ("gauge ising2d", "ising2d", ["gauge", "{code}"]),
    ("gauge fractal_ising", "fractal_ising", ["gauge", "{code}"]),
    ("kernel fractal_ising", "fractal_ising",
     ["kernel", "{code}", "--certify", [6, 6, 6], "--json"]),
    ("kernel ising2d", "ising2d",
     ["kernel", "{code}", "--box", [1, 1], "--certify", [6, 6], "--json"]),
    ("cluster ising2d", "ising2d", ["cluster", "{code}", "--gauge-sublattice", "both"]),
    ("cluster fractal_ising", "fractal_ising",
     ["cluster", "{code}", "--gauge-sublattice", "both"]),
    ("logical cluster_cubic", "cluster_cubic",
     ["logical", "{code}", "--lengths", [4, 4, 4], "--json"]),
]
_TORUS = [
    ("torus cubic L=4", "cubic", ("torus", [4, 4, 4])),
    ("torus cubic L=8", "cubic", ("torus", [8, 8, 8])),
    ("torus cubic L=12", "cubic", ("torus", [12, 12, 12])),
    ("torus toric2d L=16", "toric2d", ("torus", [16, 16])),
    ("torus toric2d L=24", "toric2d", ("torus", [24, 24])),
    ("torus generalized_toric(3,1) L=3", "generalized_toric(3,1)", ("torus", [3, 3, 3])),
    ("torus generalized_toric(3,1) L=4", "generalized_toric(3,1)", ("torus", [4, 4, 4])),
]
_DENSE = [
    ("smallscale ising2d (3,2)", "ising2d",
     ["smallscale", "--model", "{code}", "--lengths", [3, 2], "--check", "all", "--json"]),
    ("smallscale ising2d (2,2)", "ising2d",
     ["smallscale", "--model", "{code}", "--lengths", [2, 2], "--check", "all", "--json"]),
    ("smallscale toric2d (2,2)", "toric2d",
     ["smallscale", "--model", "{code}", "--lengths", [2, 2], "--check", "all", "--json"]),
]
JOBS = {"duality": _DUALITY, "torus": _TORUS, "dense": _DENSE}

# Reduced job lists for the smoke test: same code path, seconds not minutes.
REDUCED = {
    "duality": [
        "verify cubic", "render cubic", "ungauge cubic", "duality-check toric2d",
        "gauge ising2d", "kernel ising2d", "cluster ising2d", "logical cluster_cubic",
    ],
    "torus": ["torus cubic L=4", "torus toric2d L=16"],
    "dense": ["smallscale ising2d (2,2)", "smallscale toric2d (2,2)"],
}


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def _file_name(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", label).strip("_") + ".json"


def transform_code_dict(data: dict, perm: list[int], shift: list[int]) -> dict:
    """Permute the axes of every exponent vector and translate it by `shift`.

    New axis i is old axis perm[i], so exponent e becomes
    (e[perm[0]] + shift[0], ..., e[perm[d-1]] + shift[d-1]).
    """

    def move(poly):
        return [[e[p] + s for p, s in zip(perm, shift)] for e in poly]

    out = dict(data)
    out["generators"] = [
        {"x_block": [move(p) for p in g["x_block"]], "z_block": [move(p) for p in g["z_block"]]}
        for g in data["generators"]
    ]
    return out


def make_plan(workload: str, seed: int, workdir: Path, reduced: bool = False) -> dict:
    """Write the seeded input code files into `workdir` and return the job plan."""
    from stabgauge import code_from_dict, code_to_dict, dumps_code, get_code

    if workload not in JOBS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = JOBS[workload]
    if reduced:
        jobs = [j for j in jobs if j[0] in REDUCED[workload]]
    codes = {}
    perms = {}
    for label in sorted({label for _, label, _ in jobs}):
        base = code_to_dict(get_code(label))
        dim = base["dim"]
        perm = list(range(dim))
        rng.shuffle(perm)
        shift = [rng.randint(-SHIFT_RANGE, SHIFT_RANGE) for _ in range(dim)]
        path = workdir / _file_name(label)
        path.write_text(dumps_code(code_from_dict(transform_code_dict(base, perm, shift))),
                        encoding="utf-8")
        codes[label] = str(path)
        perms[label] = perm
    planned = []
    for job_id, label, template in jobs:
        perm = perms[label]

        def fill(arg):
            if isinstance(arg, list):
                return ",".join(str(arg[p]) for p in perm)
            return arg.replace("{code}", codes[label])

        if template[0] == "torus":
            planned.append({"id": job_id, "code": label, "lengths": [template[1][p] for p in perm]})
        else:
            planned.append({"id": job_id, "code": label, "argv": [fill(a) for a in template]})
    rng.shuffle(planned)
    return {"workload": workload, "seed": seed, "codes": codes, "jobs": planned}


def run_job(job: dict, codes: dict):
    """Run one job through the public API; returns what `check_job` needs."""
    if "argv" in job:
        from stabgauge.cli import cli_main

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_main(job["argv"])
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    from stabgauge import count_logical, logical_operator_gap, shape_of

    code = codes[job["code"]]
    shape = shape_of(job["lengths"])
    return {"count": count_logical(code, shape), "gap": logical_operator_gap(code, shape)}


def _torus_k(code, length: int) -> int:
    from stabgauge import instantiate, shape_of

    shape = shape_of((length,) * code.dim)
    return code.q_per_site * shape.n_sites - instantiate(code.full_sigma(), shape).rank()


def _reload(text: str):
    from stabgauge import loads_code, verify_stabilizer

    code = loads_code(text)
    if not verify_stabilizer(code).passed:
        raise ValueError("output code does not commute")
    return code


def check_job(job: dict, result: dict, expected: dict) -> str:
    """Return "" when the answer matches the expected table, else the reason."""
    want = expected[job["id"]]
    if "count" in result:
        rep, gap = result["count"], result["gap"]
        if rep.k_encoded != want["k"]:
            return f"k = {rep.k_encoded}, expected {want['k']}"
        if gap[2] != 2 * rep.k_encoded:
            return f"gap {gap[2]} != 2k"
        if rep.bulk_term is not None and rep.c_constant is not None:
            if rep.bulk_term + rep.c_constant != rep.k_encoded:
                return "bulk_term + c_constant != k"
        return ""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[:200]}"
    kind = job["argv"][0]
    text = result["stdout"]
    if kind in ("verify", "duality-check", "kernel"):
        payload = json.loads(text)
        for key in ("passed", "forward_match", "dual_match"):
            if key in payload and payload[key] is not True:
                return f"{key} is {payload[key]}"
        if kind == "kernel" and len(payload["generators"]) != want["generators"]:
            return f"{len(payload['generators'])} kernel generators, expected {want['generators']}"
    elif kind == "render":
        n = sum(1 for line in text.splitlines() if line.startswith("generator "))
        if n != want["generators"]:
            return f"{n} generator diagrams, expected {want['generators']}"
    elif kind == "ungauge":
        code = _reload(text)
        terms = [len(p.terms) for p in code.sigma_z.entries[0]]
        if code.q_per_site != want["q_per_site"] or terms != want["constraint_terms"]:
            return f"matter model q={code.q_per_site} constraint terms {terms}"
    elif kind == "gauge":
        if result["stderr"]:
            return "kernel certification inconclusive (mu_certified is false)"
        k = _torus_k(_reload(text), 4)
        if k != want["k_at_L4"]:
            return f"gauged code has k = {k} at L=4, expected {want['k_at_L4']}"
    elif kind == "cluster":
        code = _reload(text)
        if code.q_per_site != want["q_per_site"]:
            return f"cluster code has {code.q_per_site} qubits per site"
    elif kind == "logical":
        payload = json.loads(text)
        if payload["k_encoded"] != want["k"]:
            return f"k = {payload['k_encoded']}, expected {want['k']}"
        if payload["logical_operator_gap"] != 2 * want["k"]:
            return f"gap {payload['logical_operator_gap']} != 2k"
        if payload["bulk_term"] is not None or payload["c_constant"] is not None:
            return "non-CSS code was certified"
    elif kind == "smallscale":
        reports = json.loads(text)
        if len(reports) != want["reports"] or not all(": pass " in r for r in reports):
            return "smallscale reports: " + "; ".join(reports)
    return ""
