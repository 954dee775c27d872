"""Compare the CLI's exit code, stdout and stderr between this checkout and another.

    python tests/stdout_parity.py PARENT [--random 500] [--seed 0] [--fresh 0]

PARENT is a checkout's directory, or else a git ref (such as HEAD~1) whose
src/ is exported with git archive into a temporary directory, removed after
the run.

Runs, on both checkouts, each in one subprocess through optodicke.cli.run:
- the benchmark's operations (bench/workloads.py, one-worker and pool
  passes) at seeds 1 to 10, each in CSV and in JSON;
- --random seeded random argument lists over every command, each in CSV and
  in JSON, drawn from the value ranges of tests/test_cli.py's
  test_fuzz_referee.
With --fresh N, the first N of those argument lists also run each in its own
python -m optodicke.cli process, on both checkouts: a fault that shows only on
a command's first use in a process (a module it forgets to import, say) is
hidden in-process, where an earlier command has loaded it already.  The
checkout's src/ path in stderr is written as <src> there.
Prints every argument list whose exit code, stdout or stderr differ, with
its first differing line, and exits 1 if any does.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)

# Runs argument lists from stdin (a JSON list) and writes {module, results}.
_CHILD = """
import contextlib, io, json, sys, warnings
import optodicke.cli as cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \\
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""

# The value ranges of test_fuzz_referee: a number is 10**e for e uniform in
# [-300, 300], or one of _SPECIAL; grids have two distinct sorted ends and 2
# to 4 points; n_atoms is one of _N_ATOMS and n_max in [0, 60].
_SPECIAL = ["0", "1", "5e-324", "1e-300", "1e-150", "1e150", "1e300"]
_N_ATOMS = ["0", "1", "2", "16"]
_DETUNINGS = ["blue", "red", "resonant"]
_COMMON = ["--omega", "--omega-a", "--omega-b", "--n-atoms"]
_FLAGS = {  # (flags always given, flags that may be left out)
    "roots": ([], ["--g", "--zeta"]),
    "sweep": (["--g"], ["--zeta"]),
    "phase-diagram": (["--g", "--zeta"], []),
    "turning-point": ([], ["--zeta"]),
    "sp-closure": ([], ["--width-tol"]),
    "rabi-compare": (["--g"], ["--n-max", "--detuning"]),
}
_GRIDS = {("sweep", "--g"), ("phase-diagram", "--g"), ("phase-diagram", "--zeta"),
          ("rabi-compare", "--g")}


def _number(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(_SPECIAL)
    return repr(10.0 ** rng.uniform(-300.0, 300.0))


def _value(rng: random.Random, command: str, flag: str) -> str:
    if (command, flag) in _GRIDS:
        ends = set()
        while len(ends) < 2:
            ends.add(float(_number(rng)))
        return f"{min(ends)!r}:{max(ends)!r}:{rng.randint(2, 4)}"
    if flag == "--n-atoms":
        return rng.choice(_N_ATOMS)
    if flag == "--n-max":
        return str(rng.randint(0, 60))
    if flag == "--detuning":
        return rng.choice(_DETUNINGS)
    return _number(rng)


def random_argvs(count: int, seed: int) -> list[list[str]]:
    """count argument lists, commands in turn, optional flags each given or not."""
    rng = random.Random(seed)
    commands = list(_FLAGS)
    argvs = []
    for i in range(count):
        command = commands[i % len(commands)]
        given, optional = _FLAGS[command]
        flags = given + [f for f in optional + _COMMON if rng.random() < 0.5]
        argvs.append([command] + [x for f in flags for x in (f, _value(rng, command, f))])
    return argvs


def bench_argvs() -> list[list[str]]:
    """The benchmark's operations at seeds 1 to 10, without any --format flag."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    argvs = []
    for name in sorted(WORKLOADS):
        for seed in SEEDS:
            workload = WORKLOADS[name](seed, False)
            for op in workload.ops + workload.pool_ops:
                at = op.index("--format") if "--format" in op else len(op)
                argvs.append(op[:at] + op[at + 2:])
    return argvs


def run_checkout(checkout: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argument list, run with checkout's source."""
    src = checkout / "src"
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(argvs),
                          env=checkout_env(checkout), capture_output=True, text=True, check=True)
    payload = json.loads(done.stdout)
    if Path(payload["module"]).resolve().parent != (src / "optodicke").resolve():
        raise SystemExit(f"{checkout}: imported {payload['module']}, not its own source")
    return payload["results"]


def checkout_env(checkout: Path) -> dict:
    """The environment that runs the CLI from checkout's source."""
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def run_fresh(checkout: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argument list, each in a fresh CLI process."""
    results = []
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "optodicke.cli", *argv],
                              env=checkout_env(checkout), capture_output=True)
        err = done.stderr.decode("utf-8", "replace").replace(str(checkout / "src"), "<src>")
        results.append([done.returncode, done.stdout.decode("utf-8", "replace"), err])
    return results


def export_src(ref: str, into: str) -> Path:
    """into, holding the src/ of git ref ref, as git archive writes it."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                         stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)
    return Path(into)


def _first_difference(a: str, b: str) -> str:
    for i, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines())):
        if line_a != line_b:
            return f"line {i}: {line_a[:120]!r} != {line_b[:120]!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the checkout to compare with, or a git ref")
    parser.add_argument("--random", type=int, default=500, help="random argument lists")
    parser.add_argument("--seed", type=int, default=0, help="seed of the random lists")
    parser.add_argument("--fresh", type=int, default=0,
                        help="argument lists also run each in a fresh process")
    args = parser.parse_args(argv)

    base = bench_argvs() + random_argvs(args.random, args.seed)
    argvs = [a + fmt for a in base for fmt in ([], ["--format", "json"])]
    fresh = argvs[:args.fresh]
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(args.parent)
        parent = parent if parent.is_dir() else export_src(args.parent, tmp)
        theirs = run_checkout(parent, argvs) + run_fresh(parent, fresh)
    ours = run_checkout(ROOT, argvs) + run_fresh(ROOT, fresh)
    differ = 0
    labels = [" ".join(a) for a in argvs] + [f"(fresh) {' '.join(a)}" for a in fresh]
    for label, (code_a, out_a, err_a), (code_b, out_b, err_b) in zip(labels, theirs, ours):
        what = [name for name, a, b in (("exit code", code_a, code_b), ("stdout", out_a, out_b),
                                         ("stderr", err_a, err_b)) if a != b]
        if what:
            differ += 1
            detail = (f"{code_a} != {code_b}" if code_a != code_b else
                      _first_difference(out_a, out_b) if out_a != out_b else
                      _first_difference(err_a, err_b))
            print(f"{label}: {', '.join(what)} differ; {detail}")
    print(f"{differ} of {len(labels)} runs differ ({len(argvs) - 2 * args.random} bench, "
          f"{2 * args.random} random, {len(fresh)} of them again in fresh processes)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
