"""CPU-speed reference for the benchmark's time metrics.

Usage: python3 perfbench/cpuref.py COUNTER_FILE

On a shared VM the speed of a vCPU drifts with the host's other load, by
up to 1.5x over seconds to minutes, and the guest sees neither steal time
nor instruction counts.  So run.py pins itself, its workers and this
process to one vCPU, and this process runs a fixed pure-Python loop at
the lowest priority (nice 19).  It gets about 1.5% of that vCPU, in short
slices between the worker's, and it keeps writing to COUNTER_FILE how
many loop chunks it has run and its own CPU time.  Chunks per second of
its CPU time is the vCPU's speed at the moments the worker runs.

A time metric is a raw time multiplied by `factor` over the same window,
the measured rate divided by NOMINAL_RATE: seconds at a fixed nominal
speed.  For the pure-Python jobs of `duality` and `torus` this cuts the
run-to-run spread of pass times from 7-13% to about 2%.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

CHUNK = 2000
# chunks per CPU-second, about the median speed of a 2-vCPU Xeon VM with
# CPython 3.11; the constant only sets the scale of the normalised times
NOMINAL_RATE = 6000.0
# below this much reference CPU time in a window its rate is too coarse
MIN_REF_CPU_S = 0.005
_LAYOUT = struct.Struct("dd")  # chunks run, CPU seconds


def create(path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(bytes(_LAYOUT.size))


class Counter:
    """Read-only view of the counters the reference process writes."""

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            self._map = mmap.mmap(fh.fileno(), _LAYOUT.size, access=mmap.ACCESS_READ)

    def read(self) -> tuple[float, float]:
        return _LAYOUT.unpack_from(self._map, 0)


def delta(before: tuple[float, float], after: tuple[float, float]) -> list[float]:
    return [after[0] - before[0], after[1] - before[1]]


def factor(*deltas: list[float]) -> float | None:
    """Speed over the pooled windows relative to nominal, or None when too short."""
    chunks = sum(d[0] for d in deltas)
    cpu = sum(d[1] for d in deltas)
    if cpu < MIN_REF_CPU_S:
        return None
    return chunks / cpu / NOMINAL_RATE


def main(path: str) -> int:
    os.nice(19)
    parent = os.getppid()
    with open(path, "r+b") as fh:
        counters = mmap.mmap(fh.fileno(), _LAYOUT.size)
    chunks = 0
    while True:
        s = 0
        for i in range(CHUNK):
            s += i * i
        chunks += 1
        _LAYOUT.pack_into(counters, 0, float(chunks), time.thread_time())
        if chunks % 256 == 0 and os.getppid() != parent:
            return 0  # the run was killed without stopping us


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
