"""The benchmark's span tracer still finds the library functions it times.

`perfbench/spans.py` wraps library functions by module and name, so a
rename or an unhashable input key breaks the traced benchmark run without
failing any library test.  This runs the tracer in-process over one command
of each kind the benchmark times.
"""

import importlib.util
import inspect
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import stabgauge
from stabgauge.cli import cli_main

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

COMMANDS = [
    ["duality-check", "toric2d", "--json"],
    ["cluster", "ising2d", "--gauge-sublattice", "both"],
    ["logical", "cubic", "--lengths", "2,2,2", "--json"],
    ["kernel", "ising2d", "--certify", "6,6", "--json"],
    ["gauge", "ising2d"],
    ["smallscale", "--model", "ising2d", "--lengths", "2,2", "--check", "all", "--json"],
]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library_bindings(spans) -> dict:
    """Every name bound in the stabgauge modules and on the traced classes."""
    modules = [stabgauge] + [importlib.import_module(f"stabgauge.{m}") for m in spans.MODULES]
    out = {}
    for module in modules:
        for var, value in vars(module).items():
            out[(module.__name__, var)] = value
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    out[(module.__name__, var, attr)] = member
    return out


def _run(argv) -> None:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 0, argv


def test_traced_commands_reach_the_timed_functions():
    spans = _load_spans()
    before = _library_bindings(spans)
    # the CLI parser is built once per process: build it before the tracer
    # rebinds `cli.cmd_*`, so a parser that kept the command functions it saw
    # then would bypass the traced ones
    _run(COMMANDS[0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in COMMANDS:
            _run(argv)
    finally:
        tracer.uninstall()
    metrics = spans.aggregate(tracer.spans)
    for name in ("gauging.gauge_operator", "syzygy.bounded_kernel", "smallscale.build_G"):
        assert metrics[f"{name}.calls"] > 0, name
    for argv in COMMANDS:
        assert metrics[f"cli.{argv[0]}.calls"] > 0, argv[0]
    traced = len(tracer.spans)
    _run(COMMANDS[0])
    assert len(tracer.spans) == traced
    after = _library_bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
