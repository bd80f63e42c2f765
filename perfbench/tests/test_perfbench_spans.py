"""The traced run sees calls made inside the library, not only at its surface.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import pstats
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
from stabgauge.cli import cli_main  # noqa: E402
from stabgauge.gf2 import Gf2Matrix  # noqa: E402

ARGV = ["duality-check", "cubic", "--json"]


def _duality_check_cubic() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(ARGV) == 0


def _traced_spans() -> list[list]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        _duality_check_cubic()
    finally:
        tracer.uninstall()
    return tracer.spans


def _ancestry(spans_: list[list], index: int) -> list[str]:
    names = []
    while index >= 0:
        names.append(spans_[index][0])
        index = spans_[index][3]
    return names


def test_certification_solves_nest_row_reductions():
    recorded = _traced_spans()
    chains = [_ancestry(recorded, i) for i, s in enumerate(recorded) if s[0] == "gf2.row_reduce"]
    assert any(c[:3] == ["gf2.row_reduce", "gf2.solve", "syzygy.certify_on_torus"] for c in chains)
    # the whole job hangs off the CLI command, through the gauging layer
    assert any(c[-1] == "cli.duality-check" and "gauging.gauge" in c for c in chains)


def test_solve_calls_match_cprofile():
    metrics = spans.aggregate(_traced_spans())
    profile = cProfile.Profile()
    profile.runcall(_duality_check_cubic)
    ncalls = sum(
        stat[1]
        for (path, _line, func), stat in pstats.Stats(profile).stats.items()
        if func == "solve" and path.endswith("gf2.py")
    )
    assert ncalls > 0
    assert metrics["gf2.solve.calls"] == ncalls


def test_uninstall_restores_the_library():
    original = Gf2Matrix.__dict__["solve"]
    import stabgauge.gauging as gauging

    bounded_kernel = gauging.bounded_kernel
    tracer = spans.Tracer()
    tracer.install()
    assert Gf2Matrix.__dict__["solve"] is not original
    assert gauging.bounded_kernel is not bounded_kernel
    tracer.uninstall()
    assert Gf2Matrix.__dict__["solve"] is original
    assert gauging.bounded_kernel is bounded_kernel
