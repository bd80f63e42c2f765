"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py PLAN_JSON [--trace]

Set-up is interpreter start, `import stabgauge` from the checkout's src/
and loading the plan's code files through `loads_code`.  The worker then
prints "ready" and waits for one line on stdin: "go" runs every job of the
plan once, anything else exits.  The result is one JSON line: per-job
times, the CPU-speed reference's counter deltas over each job (see
cpuref.py) and answer checks, the process's peak RSS and, with --trace,
the per-layer metrics.  The traced worker also writes its spans to the
plan's trace_file.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    traced = "--trace" in argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import stabgauge
    import stabgauge.cli  # what a CLI invocation imports; smallscale comes with it
    import cpuref
    import workloads

    codes = {}
    for label, path in plan["codes"].items():
        with open(path, encoding="utf-8") as fh:
            codes[label] = stabgauge.loads_code(fh.read())
    expected = workloads.load_expected()
    counter = cpuref.Counter(plan["reference"])
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    jobs = []
    for job in plan["jobs"]:
        if tracer is not None:
            tracer.job = job["id"]
            tracer.active = True
        job_ref = counter.read()
        start = perf_counter()
        try:
            result = workloads.run_job(job, codes)
            error = ""
        except Exception:  # a job that raises is a failed job, not a crashed pass
            result, error = None, traceback.format_exc(limit=3)
        seconds = perf_counter() - start
        ref = cpuref.delta(job_ref, counter.read())
        if tracer is not None:
            tracer.active = False
        if result is not None:
            try:
                error = workloads.check_job(job, result, expected)
            except Exception:
                error = "answer check raised: " + traceback.format_exc(limit=3)
        jobs.append({"id": job["id"], "s": seconds, "ref": ref, "error": error})
    report = {
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = spans.aggregate(tracer.spans)
        trace_file = Path(plan["trace_file"])
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "job", "size", "repeat", "nested"]
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": tracer.spans}, fh)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
