"""The names the benchmark's per-layer tracer wraps, and the CLI's imports.

bench/tracing.py replaces package functions at the module globals their
callers read.  A refactor that deletes or renames one of them makes the
traced benchmark crash, so the tracer is installed and removed here.
"""

import contextlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import optodicke
import optodicke.cli

from fresh_interpreter import loaded_modules

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
        "rabi.ground_energy": (od.rabi, "ground_energy"),
        "rabi.smallest_eigenvalue": (od.rabi, "smallest_eigenvalue"),
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
            assert optodicke.cli.run(["rabi-compare", "--g", "0:3:5", "--n-max", "50"]) == 0
    finally:
        tracer.unpatch()
    for name, (mod, attr) in _hooked().items():
        assert getattr(mod, attr) is before[name], name
    assert optodicke.cli._COMMANDS == commands

    calls = tracer.aggregate(0, len(tracer.spans))["calls"]
    assert calls["diagram.grid_row"] == 1  # one pass labels every zeta row of the grid
    # sweep_g solves its grid in one array pass, the marginal row g = 1 = g_c included
    assert calls["diagram.sweep_row"] == 0
    assert calls["cli.solve"] == 3 and calls["cli.emit"] == 3
    # rabi-compare solves its grid in one kernel call, which checks its residuals once
    assert calls["rabi.residual"] == 1 and tracer.counts["rabi.sturm_counts"] > 0
    assert calls["rabi.ground_energy"] == calls["rabi.smallest_eigenvalue"] == 0
    # the phase grid solves one fold per nonzero zeta row and no stationary points
    assert tracer.calls_under("solver.turning_point", "diagram.grid_row", 0, len(tracer.spans)) == 4
    assert tracer.calls_under("solver.find_roots", "diagram.grid_row", 0, len(tracer.spans)) == 0


def _work(monkeypatch, module, names, operations) -> Counter:
    """Calls of module's functions names while the CLI runs operations, each exiting 0."""
    counts = Counter()
    for name in names:
        monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name), name=name:
                            counts.update([name]) or fn(*args))
    with contextlib.redirect_stdout(io.StringIO()):
        assert [optodicke.cli.run(op) for op in operations] == [0] * len(operations)
    return counts


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(TRACING.parent))
    spec = importlib.util.spec_from_file_location("bench_workloads", TRACING.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _ed_work(monkeypatch, ops: str) -> Counter:
    """Sturm passes and inverse iterations of the rabi_check operations at seed 1."""
    operations = getattr(_workloads(monkeypatch).RabiCheck(1, False), ops)
    return _work(monkeypatch, optodicke.rabi, ("_sturm_count", "_inverse_iteration"), operations)


def test_rabi_check_ed_work(monkeypatch):
    # three Sturm passes per operation, and no column that needs inverse iteration
    assert _ed_work(monkeypatch, "ops") == {"_sturm_count": 12}


def test_rabi_check_pool_ed_work(monkeypatch):
    # the same for the operations that wall_pool_s times
    assert _ed_work(monkeypatch, "pool_ops") == {"_sturm_count": 12}


def test_paper_curves_kernel_work(monkeypatch):
    # one pass of the root kernel per sweep, and no evaluation of p or its slope:
    # the closed-form roots are not polished (the operations of both passes)
    workloads = _workloads(monkeypatch).PaperCurves(1, False)
    assert workloads.pool_ops == workloads.ops
    names = ("extremum_polynomial", "extremum_polynomial_slope", "_points")
    sweeps = sum(op[0] == "sweep" for op in workloads.ops)
    assert sweeps == 5
    assert _work(monkeypatch, optodicke.solver, names, workloads.ops) == {"_points": sweeps}


def test_cli_import_starts_no_pool_machinery():
    assert "concurrent.futures" not in loaded_modules("import optodicke.cli")
