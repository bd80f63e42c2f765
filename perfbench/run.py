"""stabgauge benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload duality|torus|dense --seed N \
        --seconds S --trace 0|1 [--reduced]

Each timed pass runs every job of the workload once in a fresh worker
process (perfbench/worker.py), one worker at a time, with BLAS and OpenMP
pinned to one thread.  The run, its workers and a CPU-speed reference
(perfbench/cpuref.py) share one vCPU, and the time metrics are scaled to
the reference's nominal speed.  `--trace 0` repeats passes for about S
seconds (at least one) and reports the end-to-end metrics; `--trace 1`
alternates untraced and traced passes (up to 5 pairs, as time allows) and
reports the per-layer metrics and the tracing overhead.  `--reduced` runs
the short job lists of the smoke test.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every answer matched perfbench/expected.json; a checkout without
src/stabgauge exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep

import cpuref
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 4
TRACE_PAIRS = 5
TRACE_WINDOWS = 2
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("heaviest_job_s", "s"), ("peak_rss_mb", "MB")]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Pass:
    """One worker process: its set-up time and, when it ran, its report."""

    setup_s: float
    setup_ref: list[float]
    report: dict | None
    lifetime_s: float
    n_jobs: int

    @property
    def jobs(self) -> list[dict]:
        return self.report["jobs"] if self.report else []

    @property
    def failed(self) -> int:
        if self.report is None:
            return self.n_jobs
        return sum(1 for j in self.jobs if j["error"])

    @property
    def wall_s(self) -> float:
        return sum(j["s"] for j in self.jobs)

    @property
    def heaviest(self) -> dict:
        return max(self.jobs, key=lambda j: j["s"])

    @property
    def speed(self) -> float | None:
        return cpuref.factor(*(j["ref"] for j in self.jobs))


def run_speed(passes: list[Pass]) -> float:
    """Speed factor pooled over every set-up and job window of the run."""
    windows = [p.setup_ref for p in passes] + [j["ref"] for p in passes for j in p.jobs]
    speed = cpuref.factor(*windows)
    if speed is None:
        raise RuntimeError("the CPU-speed reference got no CPU time during the run")
    return speed


def scaled_wall(p: Pass, fallback: float) -> float:
    return p.wall_s * (p.speed or fallback)


def scaled_heaviest(p: Pass, fallback: float) -> float:
    h = p.heaviest
    return h["s"] * (cpuref.factor(h["ref"]) or p.speed or fallback)


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(plan_path: Path, plan: dict, counter: cpuref.Counter, go: bool, traced: bool,
               deadline: float) -> Pass:
    """Spawn a worker, time its set-up, then run the pass (go) or stop it."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path)]
    if traced:
        cmd.append("--trace")
    ref_start = counter.read()
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=str(ROOT))
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
    timer.start()
    report = None
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        setup_ref = cpuref.delta(ref_start, counter.read())
        command = ("go\n" if go else "stop\n") if ready.strip() == "ready" else None
        out = proc.communicate(command)[0]
        if go and out.strip():
            report = json.loads(out.splitlines()[-1])
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if go and (proc.returncode != 0 or report is None):
        print(f"worker exited with code {proc.returncode} without a report", file=sys.stderr)
        report = None
    return Pass(setup_s, setup_ref, report, perf_counter() - start, len(plan["jobs"]))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", q1 {q1:.4f} q3 {q3:.4f}"


def informational() -> dict:
    import numpy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((SRC / "stabgauge").glob("*.py")))
    return {"src_lines": lines, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def measure(plan_path: Path, plan: dict, counter: cpuref.Counter, seconds: float,
            run_start: float) -> tuple[dict, list[Pass]]:
    deadline = run_start + RUN_LIMIT_S

    def worker(go: bool) -> Pass:
        return run_worker(plan_path, plan, counter, go, False, deadline)

    worker(False)  # warm-up, discarded
    # set-up probes before and after the passes, so that they see the
    # machine at more than one moment of the run
    workers = [worker(False) for _ in range(SETUP_PROBES)]
    passes: list[Pass] = []
    measure_start = perf_counter()
    while True:
        p = worker(True)
        passes.append(p)
        now = perf_counter()
        if (p.report is None or now - measure_start + p.lifetime_s > seconds
                or now + p.lifetime_s > deadline):
            break
    done = [p for p in passes if p.report is not None]
    if done:
        workers += [worker(False) for _ in range(SETUP_PROBES)]
    workers += passes
    print(f"end-to-end: {len(passes)} pass(es), each in a fresh worker; "
          f"{len(workers)} set-up samples")
    if not done:
        return {}, passes
    speed = run_speed(workers)
    setup_speed = cpuref.factor(*(w.setup_ref for w in workers)) or speed
    walls = [scaled_wall(p, speed) for p in done]
    heaviest = [scaled_heaviest(p, speed) for p in done]
    for i, p in enumerate(done):
        print(f"  pass {i + 1}: set-up {p.setup_s:.4f} s, wall {p.wall_s:.4f} s "
              f"(scaled {walls[i]:.4f}), heaviest {p.heaviest['s']:.4f} s (scaled "
              f"{heaviest[i]:.4f}, {p.heaviest['id']}), peak RSS {p.report['peak_rss_mb']:.1f} MB")
    setups = [w.setup_s for w in workers]
    values = {
        "setup_s": statistics.median(setups) * setup_speed,
        "wall_s": statistics.median(walls),
        "heaviest_job_s": statistics.median(heaviest),
        "peak_rss_mb": statistics.median([p.report["peak_rss_mb"] for p in done]),
    }
    raw = "at nominal speed; raw median"
    notes = {
        "setup_s": f"median of {len(setups)}{_quartiles(setups)} {raw} "
                   f"{statistics.median(setups):.4f} s, speed {setup_speed:.3f}",
        "wall_s": f"median of {len(done)} passes{_quartiles(walls)} {raw} "
                  f"{statistics.median(p.wall_s for p in done):.4f} s",
        "heaviest_job_s": f"median of {len(done)} passes {raw} "
                          f"{statistics.median(p.heaviest['s'] for p in done):.4f} s; job "
                          + ", ".join(sorted({p.heaviest["id"] for p in done})),
        "peak_rss_mb": f"median of {len(done)} workers",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<3} {notes[name]}")
    print(f"  speed factor over the run {speed:.4f} (reference rate / nominal rate)")
    return values, passes


def trace(plan_path: Path, plan: dict, counter: cpuref.Counter, seconds: float,
          run_start: float) -> tuple[dict, list[Pass]]:
    """Alternate untraced and traced passes; report the traced layers and the overhead.

    Pairs run while another one fits in TRACE_WINDOWS times `seconds` (at
    least one, at most TRACE_PAIRS).  Per-layer times and trace.wall_s are
    raw.  The overhead is the median over pairs of traced minus untraced
    pass time, both scaled to the nominal speed.  It counts as resolved
    only when there are two pairs or more, its quartiles exclude zero and
    it exceeds the range of the scaled untraced passes; otherwise it is
    noise, and the report says so.
    """
    deadline = run_start + RUN_LIMIT_S
    run_worker(plan_path, plan, counter, False, False, deadline)  # warm-up, discarded
    plain: list[Pass] = []
    traced: list[Pass] = []
    while len(traced) < TRACE_PAIRS:
        pair_start = perf_counter()
        plain.append(run_worker(plan_path, plan, counter, True, False, deadline))
        traced.append(run_worker(plan_path, plan, counter, True, True, deadline))
        if plain[-1].report is None or traced[-1].report is None:
            return {}, plain + traced
        pair_s = perf_counter() - pair_start
        if perf_counter() + 1.2 * pair_s > run_start + TRACE_WINDOWS * seconds:
            break
    values = {name: statistics.median(p.report["layers"][name] for p in traced)
              for name in traced[0].report["layers"]}
    speed = run_speed(plain + traced)
    scaled = [scaled_wall(p, speed) for p in plain]
    diffs = [scaled_wall(t, speed) - u for u, t in zip(scaled, traced)]
    untraced = [p.wall_s for p in plain]
    overhead = statistics.median(diffs)
    resolved = False
    quartiles = ""
    if len(diffs) >= 2:
        q1, _, q3 = statistics.quantiles(diffs, n=4)
        resolved = (q1 > 0 or q3 < 0) and abs(overhead) > max(scaled) - min(scaled)
        quartiles = f", quartiles {q1:.4f} .. {q3:.4f} s"
    values["trace.pairs"] = len(diffs)
    values["trace.wall_s"] = statistics.median(t.wall_s for t in traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_ratio"] = overhead / statistics.median(scaled)
    print(f"{len(diffs)} untraced/traced pair(s): traced wall {values['trace.wall_s']:.4f} s, "
          f"untraced {values['trace.untraced_wall_s']:.4f} s (range "
          f"{min(untraced):.4f} .. {max(untraced):.4f} s); spans in {plan['trace_file']}")
    print(f"tracing overhead at nominal speed: median {overhead:.4f} s over {len(diffs)} "
          f"pair(s){quartiles}; "
          + ("resolved" if resolved else "unresolved: within the noise of the untraced passes"))
    print("self time by module (s):")
    for module in sorted(spans.MODULES, key=lambda m: -values[f"{m}.self_s"]):
        share = values[f"{module}.self_s"] / values["trace.wall_s"]
        print(f"  {module:<12} {values[f'{module}.self_s']:10.4f}  {share:6.1%}")
    return values, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true", help="short job lists (smoke test)")
    args = parser.parse_args(argv)
    run_start = perf_counter()
    # on SIGTERM, unwind so the running worker is killed and reaped in run_worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "stabgauge" / "__init__.py").is_file():
        print(f"error: no stabgauge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the run, its workers and the speed reference share one vCPU (children
    # inherit the affinity), so the reference sees the speed the workers get
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    reference = None
    try:
        plan = workloads.make_plan(args.workload, args.seed, workdir, args.reduced)
        plan["trace_file"] = str(HERE / ".traces" / f"{args.workload}-seed{args.seed}.json")
        plan["reference"] = str(workdir / "speed.bin")
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        print(f"stabgauge benchmark: workload {args.workload}, seed {args.seed}, "
              f"{len(plan['jobs'])} jobs per pass, trace {args.trace}")
        print("info " + json.dumps(informational()))
        cpuref.create(plan["reference"])
        reference = subprocess.Popen([sys.executable, str(HERE / "cpuref.py"), plan["reference"]])
        counter = cpuref.Counter(plan["reference"])
        while counter.read()[0] == 0:
            if reference.poll() is not None or perf_counter() - run_start > 30:
                raise RuntimeError("the CPU-speed reference did not start")
            sleep(0.01)
        if args.trace:
            values, passes = trace(plan_path, plan, counter, args.seconds, run_start)
            wanted = spans.per_layer_metrics()
        else:
            values, passes = measure(plan_path, plan, counter, args.seconds, run_start)
            wanted = END_TO_END
    finally:
        if reference is not None:
            reference.kill()
            reference.wait()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.n_jobs for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for job in p.jobs:
            if job["error"]:
                print(f"FAILED {job['id']}: {job['error']}")
    print(f"  {'failed_ratio':<16} {failed / attempted:>12.4f} ratio {failed} of {attempted} jobs")
    by_job: dict[str, list[float]] = {}
    for p in passes:
        for job in p.jobs:
            by_job.setdefault(job["id"], []).append(job["s"])
    print("job times, median s over passes:")
    for job_id, times in sorted(by_job.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"  {statistics.median(times):10.4f}  {job_id}")
    correct = failed == 0 and bool(values)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted if name in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
