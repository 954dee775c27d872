"""Benchmark of the optodicke CLI: end-to-end timings, or per-layer counts and self times.

    python3 bench/run.py --workload phase_map --seed 1 --seconds 35 --trace 0

Runs the workload's operations through optodicke.cli.run, in-process, in
rounds until --seconds have passed (every round completes).  With --trace 0
a round is one pass at OPTODICKE_WORKERS=1 and one at OPTODICKE_WORKERS=2,
and the end-to-end metrics are reported.  With --trace 1 a round is one
untraced and one traced one-worker pass, and the per-layer metrics are
reported.  Every output is checked against bench/oracle.py.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
--tiny runs the same code and checks on grids of a few points.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Set-up probes before the first round and again after the last.  None runs
# between rounds: a fresh interpreter started there slowed the next timed pass.
SETUP_PROBES = 4


def _setup_probe() -> float:
    """Wall time of one fresh interpreter importing optodicke.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import optodicke.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    """Runs passes of CLI operations; keeps the first pass's outputs per worker count.

    Later passes are compared with the first and dropped, so that memory use
    does not grow with the number of passes.
    """

    def __init__(self, cli) -> None:
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.walls: dict[int, list[float]] = {1: [], 2: []}
        self.first: dict[int, list[tuple[int, str]]] = {}
        self.unsteady: set[int] = set()

    def run_pass(self, ops, workers: int) -> float:
        os.environ["OPTODICKE_WORKERS"] = str(workers)
        outputs, elapsed = [], 0.0
        for args in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                if self.tracer is None:
                    code = self.cli.run(list(args))
                else:
                    code = self.tracer.span("cli.run", self.cli.run, list(args))
                elapsed += time.perf_counter() - t0
            self.attempted += 1
            self.failed += code != 0
            outputs.append((code, out.getvalue()))
        if self.first.setdefault(workers, outputs) != outputs:
            self.unsteady.add(workers)
        self.walls[workers].append(elapsed)
        return elapsed


def _import_program():
    if not (SRC / "optodicke" / "cli.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}/optodicke")
    sys.path.insert(0, str(SRC))
    import optodicke
    import optodicke.cli
    if Path(optodicke.__file__).resolve().parent != SRC / "optodicke":
        raise SystemExit(f"bench: imported optodicke from {optodicke.__file__}, not {SRC}")
    return optodicke


def _layer_metrics(tracer, start: int, stop: int, counts: dict, cells: int) -> dict:
    agg = tracer.aggregate(start, stop)
    calls, total, self_s = agg["calls"], agg["total"], agg["self"]
    grid_solves = tracer.calls_under("solver.find_roots", "diagram.grid_row", start, stop)
    return {
        "model.p_calls": calls["model.p"],
        "model.p_points": counts["model.p_points"],
        "model.self_s": self_s["model.p"],
        "solver.find_roots.calls": calls["solver.find_roots"],
        "solver.find_roots.self_s": self_s["solver.find_roots"],
        "solver.degenerate_retries": counts["solver.degenerate_retries"],
        "solver.turning_point.calls": calls["solver.turning_point"],
        "solver.turning_point.self_s": self_s["solver.turning_point"],
        "solver.sp_closure.calls": calls["solver.sp_closure"],
        "solver.sp_closure.self_s": self_s["solver.sp_closure"],
        "diagram.grid_row.self_s": self_s["diagram.grid_row"],
        "diagram.solves_per_cell": grid_solves / (2 * cells) if cells else 0.0,
        "diagram.sweep_row.self_s": self_s["diagram.sweep_row"],
        "rabi.ground_energy.calls": calls["rabi.ground_energy"],
        "rabi.ground_energy.self_s": self_s["rabi.ground_energy"],
        "rabi.smallest_eigenvalue.calls": calls["rabi.smallest_eigenvalue"],
        "rabi.smallest_eigenvalue.self_s": self_s["rabi.smallest_eigenvalue"],
        "rabi.sturm_counts": counts["rabi.sturm_counts"],
        "rabi.residual_s": total["rabi.residual"],
        "cli.parse_s": self_s["cli.run"],
        "cli.solve_s": total["cli.solve"],
        "cli.emit_s": total["cli.emit"],
    }


UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="grids of a few points")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    od = _import_program()
    setup = [] if args.trace else [_setup_probe() for _ in range(SETUP_PROBES)]

    # Warm-up: the tiny variant touches every code path and lazy import once.
    Runner(od.cli).run_pass(WORKLOADS[args.workload](args.seed, True).ops, 1)

    runner = Runner(od.cli)
    start = time.perf_counter()
    if not args.trace:
        while True:
            runner.run_pass(workload.ops, 1)
            runner.run_pass(workload.pool_ops, 2)
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += [_setup_probe() for _ in range(SETUP_PROBES)]
    else:
        import tracing
        tracer = tracing.Tracer()
        traced = []
        while True:
            runner.run_pass(workload.ops, 1)  # untraced, for the tracing overhead
            span0, counts0 = len(tracer.spans), Counter(tracer.counts)
            tracing.install(tracer, od)
            runner.tracer = tracer
            try:
                wall = runner.run_pass(workload.ops, 1)
            finally:
                tracer.unpatch()
                runner.tracer = None
            traced.append((wall, span0, len(tracer.spans), tracer.counts - counts0))
            if time.perf_counter() - start >= args.seconds:
                break

    first = runner.first[1]
    errors = workload.check(first)
    errors += [f"outputs at {w} worker(s) differ between passes" for w in sorted(runner.unsteady)]
    if 2 in runner.first:
        errors += workload.check_pool(first, runner.first[2])

    if not args.trace:
        metrics = {
            "wall_s": statistics.mean(runner.walls[1]),
            "wall_pool_s": statistics.mean(runner.walls[2]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": peak_rss_mib,
        }
    else:
        cells = sum(text.count("\r\ncell,") for op, (_, text) in zip(workload.ops, first)
                    if op[0] == "phase-diagram")
        per_pass = [_layer_metrics(tracer, s0, s1, counts, cells) for _, s0, s1, counts in traced]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["cli.emit_bytes"] = sum(len(text.encode()) for _, text in first)
        metrics["trace.overhead_s"] = (statistics.mean(w for w, *_ in traced)
                                       - statistics.mean(runner.walls[1][::2]))
        tracer.dump(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.csv.gz",
                    dict(tracer.counts))

    for line in errors[:20]:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} attempted={runner.attempted}"
          f" failed={runner.failed} one-worker passes (s) {[round(w, 3) for w in runner.walls[1]]}"
          f" two-worker passes (s) {[round(w, 3) for w in runner.walls[2]]}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
