"""The CPU-speed reference runs beside a busy process on its vCPU and is stopped.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import cpuref  # noqa: E402


def test_factor_needs_enough_reference_cpu():
    assert cpuref.factor([10.0, cpuref.MIN_REF_CPU_S / 2]) is None
    rate = cpuref.NOMINAL_RATE
    assert cpuref.factor([rate * 0.01, 0.01]) == pytest.approx(1.0)
    assert cpuref.factor([rate * 0.01, 0.01], [rate * 0.03, 0.01]) == pytest.approx(2.0)


def test_reference_samples_the_shared_vcpu(tmp_path):
    path = str(tmp_path / "speed.bin")
    cpuref.create(path)
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(pinned)})
    proc = subprocess.Popen([sys.executable, str(BENCH / "cpuref.py"), path])
    try:
        counter = cpuref.Counter(path)
        start = perf_counter()
        while counter.read()[0] == 0 and perf_counter() - start < 10:
            pass
        before = counter.read()
        busy_until = perf_counter() + 1.0
        while perf_counter() < busy_until:  # the reference runs only between our slices
            pass
        window = cpuref.delta(before, counter.read())
    finally:
        proc.kill()
        proc.wait()
        os.sched_setaffinity(0, pinned)
    assert window[0] > 0
    # at nice 19 beside a busy process it gets a small share, not the vCPU
    assert 0 < window[1] < 0.2
    assert cpuref.factor(window) > 0
