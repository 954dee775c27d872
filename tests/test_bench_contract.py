"""The names the benchmark's per-layer tracer wraps, and the CLI's imports.

bench/tracing.py replaces package functions at the module globals their
callers read.  A refactor that deletes or renames one of them makes the
traced benchmark crash, so the tracer is installed and removed here.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import optodicke
import optodicke.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooked():
    od = optodicke
    return {
        "diagram.grid_row": (od.diagram, "grid_row"),
        "diagram.sweep_row": (od.diagram, "sweep_row"),
        "diagram.turning_point": (od.diagram, "turning_point"),
        "cli.find_roots": (od.cli, "find_roots"),
        "cli.turning_point": (od.cli, "turning_point"),
        "cli.sp_closure": (od.cli, "sp_closure"),
        "cli._emit": (od.cli, "_emit"),
        "solver.find_roots": (od.solver, "find_roots"),
        "solver.extremum_polynomial": (od.solver, "extremum_polynomial"),
        "rabi._sturm_count": (od.rabi, "_sturm_count"),
        "rabi._eigenpair_residual": (od.rabi, "_eigenpair_residual"),
    }


def test_install_and_unpatch():
    tracing = _load_tracing()
    before = {name: getattr(mod, attr) for name, (mod, attr) in _hooked().items()}
    commands = dict(optodicke.cli._COMMANDS)
    tracer = tracing.Tracer()
    tracing.install(tracer, optodicke)
    try:
        for name, (mod, attr) in _hooked().items():
            assert getattr(mod, attr).__wrapped__ is before[name], name
        with contextlib.redirect_stdout(io.StringIO()):
            assert optodicke.cli.run(["phase-diagram", "--g", "0:3:9", "--zeta", "0:3:5"]) == 0
            assert optodicke.cli.run(["sweep", "--g", "0:3:4", "--zeta", "1"]) == 0
    finally:
        tracer.unpatch()
    for name, (mod, attr) in _hooked().items():
        assert getattr(mod, attr) is before[name], name
    assert optodicke.cli._COMMANDS == commands

    calls = tracer.aggregate(0, len(tracer.spans))["calls"]
    assert calls["diagram.grid_row"] == 1  # one pass labels every zeta row of the grid
    # sweep_g solves its grid in one array pass, the marginal row g = 1 = g_c included
    assert calls["diagram.sweep_row"] == 0
    assert calls["cli.solve"] == 2 and calls["cli.emit"] == 2
    # the phase grid solves one fold per nonzero zeta row and no stationary points
    assert tracer.calls_under("solver.turning_point", "diagram.grid_row", 0, len(tracer.spans)) == 4
    assert tracer.calls_under("solver.find_roots", "diagram.grid_row", 0, len(tracer.spans)) == 0


def test_cli_import_starts_no_pool_machinery():
    src = str(Path(optodicke.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, optodicke.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
