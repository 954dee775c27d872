"""In-memory spans and counters around the package's public layer boundaries.

A Tracer replaces a function where its callers look it up (the module
global that the calling code reads at call time) with a wrapper that records
one span: name, start, end and parent span.  Spans stay in memory; the
benchmark writes them out once, after its last round.  Counting-only hooks
record how often a helper runs without the cost of a span.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        nid = self._name_id(name)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent)

    def wrap(self, name: str, fn, on_call=None, on_error=None):
        """A span-recording stand-in for fn.

        on_call(args) runs before the call (to count work items); on_error
        maps an exception type to the counter bumped when it escapes fn.
        """
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            try:
                return self.span(name, fn, *args, **kwargs)
            except Exception as exc:
                for exc_type, counter in (on_error or {}).items():
                    if isinstance(exc, exc_type):
                        self.counts[counter] += 1
                raise
        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, counter: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def patch_item(self, mapping: dict, key, replacement) -> None:
        self._patched.append((mapping, key, mapping[key]))
        mapping[key] = replacement

    def unpatch(self) -> None:
        while self._patched:
            target, key, original = self._patched.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def aggregate(self, start: int, stop: int) -> dict:
        """Per-name call count, inclusive time and self time over spans[start:stop].

        Self time is a span's duration minus the durations of its direct
        children.
        """
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        for nid, t0, t1, parent in self.spans[start:stop]:
            name = self.names[nid]
            calls[name] += 1
            total[name] += t1 - t0
            self_time[name] += t1 - t0
            if parent >= start:
                self_time[self.names[self.spans[parent][0]]] -= t1 - t0
        return {"calls": calls, "total": total, "self": self_time}

    def calls_under(self, name: str, ancestor: str, start: int, stop: int) -> int:
        """Spans called name in spans[start:stop] that ran inside a span called ancestor."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        count = 0
        for span_id, _, _, parent in self.spans[start:stop]:
            if span_id != nid:
                continue
            while parent >= start and self.spans[parent][0] != aid:
                parent = self.spans[parent][3]
            count += parent >= start
        return count

    def dump(self, path: Path, counts: dict) -> None:
        """Write every span and the final counts, once."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# counts " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())) + "\n")
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (nid, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{idx},{self.names[nid]},{t0:.9f},{t1:.9f},{parent}\n")


def install(tracer: Tracer, od) -> None:
    """Wrap the package's layer functions at every place callers look them up.

    od is the imported package; its modules model, solver, diagram, rabi and
    cli are reached as attributes.
    """
    solver, diagram, rabi, cli = od.solver, od.diagram, od.rabi, od.cli

    def count_points(args):
        tracer.counts["model.p_points"] += int(np.size(args[2]))

    for attr in ("extremum_polynomial", "extremum_polynomial_slope"):
        fn = tracer.wrap("model.p", getattr(od.model, attr), on_call=count_points)
        tracer.patch(solver, attr, fn)

    fn = tracer.wrap("solver.find_roots", solver.find_roots,
                     on_error={solver.DegenerateBracket: "solver.degenerate_retries"})
    for module in (solver, cli):
        tracer.patch(module, "find_roots", fn)
    fn = tracer.wrap("solver.turning_point", solver.turning_point)
    for module in (solver, cli, diagram):
        tracer.patch(module, "turning_point", fn)
    fn = tracer.wrap("solver.sp_closure", solver.sp_closure)
    for module in (solver, cli):
        tracer.patch(module, "sp_closure", fn)

    tracer.patch(diagram, "grid_row", tracer.wrap("diagram.grid_row", diagram.grid_row))
    tracer.patch(diagram, "sweep_row", tracer.wrap("diagram.sweep_row", diagram.sweep_row))

    tracer.patch(rabi, "ground_energy", tracer.wrap("rabi.ground_energy", rabi.ground_energy))
    tracer.patch(rabi, "smallest_eigenvalue",
                 tracer.wrap("rabi.smallest_eigenvalue", rabi.smallest_eigenvalue))
    tracer.patch(rabi, "_sturm_count", tracer.counting("rabi.sturm_counts", rabi._sturm_count))
    tracer.patch(rabi, "_eigenpair_residual",
                 tracer.wrap("rabi.residual", rabi._eigenpair_residual))

    for command in list(cli._COMMANDS):
        tracer.patch_item(cli._COMMANDS, command,
                          tracer.wrap("cli.solve", cli._COMMANDS[command]))
    tracer.patch(cli, "_emit", tracer.wrap("cli.emit", cli._emit))
