"""Time the GF(2) layers under torus counting and certification, best of k.

Each layer is one call, timed after its inputs are built:

- `Gf2Matrix.rank` of cubic sigma_X and sigma_Z instantiated at L = 12
  and 16, on the side `rank_on_torus` picks;
- `rank_on_torus` of both toric2d sectors at L = 48, and of both cubic
  sectors at L = 12, 24 and 27, instantiation included (tori of at least
  `torus.SPLIT_SITES` sites are ranked block by block);
- `instantiate` of both cubic sectors at (6, 6, 6);
- `place_column` of one cubic sigma_X column at (8, 8, 8), the one
  writer of torus bits, residue tables included;
- `DenseLattice.constraint_masks` and `DenseLattice.symmetry_basis` of
  `fractal_ising` at (8, 8, 8), each on a fresh lattice, so the Gauss-law
  masks are built and, for K, instantiated and eliminated;
- the seven checks of `smallscale --check all` on `fractal_ising` at
  (12, 12, 12), on a fresh lattice;
- the certification-window `nullspace` and the whole `certify_on_torus`
  of the two kernels torus counting certifies for cubic and for
  generalized_toric(3,1), those of sigma_X and of its dagger, at
  `certification_lengths`.

Usage, from the root of a checkout:

    python3 tools/bench_layers.py                 # table for this checkout
    python3 tools/bench_layers.py --quick         # fewer, smaller layers
    python3 tools/bench_layers.py --base OTHER/src --out BENCH.json

Each layer is timed best of REPEAT calls after one untimed call, with
every memo of the loaded `stabgauge` modules emptied before each timed
call, so a memoized layer times its work and not a lookup.  With
`--base`, both source trees are timed in fresh processes that alternate,
ROUNDS times each, and the JSON written to `--out` holds both sides (each
layer's best over all rounds), their ratio and each side's source line
count (`wc -l src/stabgauge/*.py`).  It also holds each side's reach:
`count_logical(cubic)` at L = 24 and 27, run once per round in a fresh
process, with k, the best wall time and the largest peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HEAD_SRC = Path(__file__).resolve().parent.parent / "src"
REPEAT, QUICK_REPEAT = 7, 3
ROUNDS = 10


def layers(quick: bool):
    """(name, build) pairs; build() makes the inputs and returns the call."""
    from stabgauge import smallscale
    from stabgauge.codebook import generalized_toric, get_code
    from stabgauge.gauging import symmetry_model_from_code
    from stabgauge.pauli import PauliColumn
    from stabgauge.syzygy import (
        _box_columns,
        bounded_kernel,
        certification_lengths,
        certify_on_torus,
    )
    from stabgauge.torus import instantiate, place_column, rank_on_torus, shape_of

    def rank(sector, length):
        def build():
            m = getattr(get_code("cubic"), sector)
            if m.cols < m.rows:  # the side rank_on_torus eliminates
                m = m.dagger()
            return instantiate(m, shape_of((length,) * 3)).rank
        return f"gf2.rank cubic {sector} L={length}", build

    def torus_rank(name, length):
        def build():
            code = get_code(name)
            shape = shape_of((length,) * code.dim)
            return lambda: rank_on_torus(code.sigma_x, shape) + rank_on_torus(code.sigma_z, shape)
        return f"torus.rank_on_torus {name} both sectors L={length}", build

    def instantiate_both(length):
        def build():
            code, shape = get_code("cubic"), shape_of((length,) * 3)
            return lambda: (instantiate(code.sigma_x, shape), instantiate(code.sigma_z, shape))
        return f"torus.instantiate cubic both sectors L={length}", build

    def place(length):
        def build():
            col, shape = get_code("cubic").sigma_x.column(0), shape_of((length,) * 3)
            return lambda: place_column(col, shape)
        return f"torus.place_column cubic sigma_x column L={length}", build

    def fractal(label, length, read):
        def build():
            model = symmetry_model_from_code(get_code("fractal_ising"))
            shape = shape_of((length,) * 3)
            return lambda: read(smallscale.DenseLattice(model, shape))
        return f"smallscale.{label} fractal_ising L={length}", build

    def all_checks(lat):
        # the reports of `smallscale --check all`, on its two operators
        model = lat.model
        single_x = PauliColumn.single_x(model.dim, model.matter_q, 0)
        bond = PauliColumn(model.dim, model.matter_q, single_x.z_block,
                           model.constraint_map.column(0))
        return [smallscale.check_lemma2(lat),
                smallscale.check_lemma3(lat, single_x), smallscale.check_lemma3(lat, bond),
                smallscale.check_claim1(lat, single_x), smallscale.check_claim1(lat, bond),
                smallscale.check_matrix_elements(lat, single_x),
                smallscale.check_groundspace_span(lat)]

    def kernel(m):
        kb = bounded_kernel(m)
        return kb, certification_lengths(kb)

    def window_nullspace(label, m):
        def build():
            kb, lengths = kernel(m)
            # the window of certify_on_torus: no translate of the parent wraps in it
            ext = kb.parent.support_extent()
            window = tuple(max(l - 1 - e, 0) for l, e in zip(lengths, ext))
            return _box_columns(kb.parent, shape_of(lengths), window)[0].nullspace
        return f"gf2.nullspace certification window {label}", build

    def certify(label, m):
        def build():
            kb, lengths = kernel(m)
            return lambda: certify_on_torus(kb, lengths)
        return f"syzygy.certify_on_torus {label}", build

    out = [rank(s, 12) for s in ("sigma_x", "sigma_z")]
    if not quick:
        out += [rank(s, 16) for s in ("sigma_x", "sigma_z")]
    out.append(torus_rank("toric2d", 24 if quick else 48))
    out += [torus_rank("cubic", length) for length in ((12,) if quick else (12, 24, 27))]
    out += [instantiate_both(6), place(8),
            fractal("DenseLattice.symmetry_basis", 8, lambda lat: lat.symmetry_basis)]
    if not quick:
        out += [fractal("DenseLattice.constraint_masks", 8, lambda lat: lat.constraint_masks),
                fractal("check all", 12, all_checks)]
    for name, code in (("cubic", get_code("cubic")),
                       ("generalized_toric(3,1)", generalized_toric(3, 1))):
        for label, m in ((f"{name} sigma_x", code.sigma_x),
                         (f"{name} sigma_x dagger", code.sigma_x.dagger())):
            out += [window_nullspace(label, m), certify(label, m)]
    return out


def clear_memos() -> None:
    """Empty every `cache_clear`-able object of the loaded stabgauge modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("stabgauge."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def time_layers(quick: bool, repeat: int) -> dict[str, float]:
    """Best of `repeat` wall-clock times per layer, in seconds."""
    best = {}
    for name, build in layers(quick):
        call = build()
        call()  # first call outside the timing, as in a warm process
        times = []
        for _ in range(repeat):
            clear_memos()
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    return best


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.machine()
    names = (line.split(":", 1)[1].strip() for line in lines if line.startswith("model name"))
    return next(names, platform.machine())


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((src / "stabgauge").glob("*.py")))


def table(columns: dict[str, dict[str, float]]) -> str:
    names = list(next(iter(columns.values())))
    heads = list(columns)
    lines = ["| layer | " + " | ".join(f"{h} (ms)" for h in heads) + " |",
             "| --- |" + " ---: |" * len(heads)]
    for n in names:
        lines.append(f"| {n} | " + " | ".join(f"{columns[h][n] * 1e3:.3f}" for h in heads) + " |")
    return "\n".join(lines)


def run_side(src: Path, quick: bool) -> dict[str, float]:
    argv = [sys.executable, __file__, "--src", str(src), "--json"] + ["--quick"] * quick
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


REACH_LENGTHS = (24, 27)
REACH = """
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from stabgauge.codebook import get_code
from stabgauge.torus import count_logical, shape_of
start = time.perf_counter()
k = count_logical(get_code("cubic"), shape_of((int(sys.argv[2]),) * 3)).k_encoded
print(json.dumps({"k": k, "s": time.perf_counter() - start,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_reach(src: Path, length: int) -> dict:
    """k, wall time and peak RSS of count_logical(cubic) at L in a fresh process."""
    argv = [sys.executable, "-c", REACH, str(src), str(length)]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HEAD_SRC, help="source tree to time")
    parser.add_argument("--quick", action="store_true", help="fewer, smaller layers")
    parser.add_argument("--json", action="store_true", help="print the times as JSON")
    parser.add_argument("--base", type=Path, help="a second source tree to compare against")
    parser.add_argument("--out", type=Path, help="with --base, the JSON file to write")
    args = parser.parse_args(argv)
    if (args.base is None) != (args.out is None):
        parser.error("--base and --out go together")
    repeat = QUICK_REPEAT if args.quick else REPEAT

    if args.base is None:
        sys.path.insert(0, str(args.src))
        best = time_layers(args.quick, repeat)
        print(json.dumps(best) if args.json else table({"time": best}))
        return 0

    sides = {"base": args.base, "head": args.src}
    runs = {side: [] for side in sides}
    reach_runs = {side: {length: [] for length in REACH_LENGTHS} for side in sides}
    for r in range(ROUNDS):
        for side in ("base", "head") if r % 2 == 0 else ("head", "base"):
            runs[side].append(run_side(sides[side], args.quick))
            for length in REACH_LENGTHS:
                reach_runs[side][length].append(run_reach(sides[side], length))
    best = {side: {n: min(run[n] for run in runs[side]) for n in runs[side][0]} for side in sides}
    reach = {side: {f"count_logical cubic L={length}": {
                 "k": sorted({run["k"] for run in rs}),
                 "best_s": min(run["s"] for run in rs),
                 "peak_rss_mb": max(run["peak_rss_mb"] for run in rs)}
                 for length, rs in reach_runs[side].items()} for side in sides}
    print(table(best))
    print(json.dumps(reach, indent=2))
    report = {
        "command": "python3 tools/bench_layers.py --base BASE/src --out FILE"
                   + " --quick" * args.quick,
        "unit": "s",
        "statistic": f"best of {repeat} calls in each of {ROUNDS} alternating processes per side",
        "python": platform.python_version(),
        "cpu": f"{cpu_model()}, {os.cpu_count()} logical CPUs",
        "sides": {side: {"src_lines": src_lines(sides[side]), "layers": best[side],
                         "reach": reach[side]}
                  for side in sides},
        "ratio_head_to_base": {n: round(best["head"][n] / best["base"][n], 3)
                               for n in best["head"]},
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
