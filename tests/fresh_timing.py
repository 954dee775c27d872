"""Time the CLI in fresh processes, this checkout against another.

    python tests/fresh_timing.py PARENT [--rounds 11]

PARENT is a checkout's directory, or else a git ref whose src/ is exported
with git archive, as tests/stdout_parity.py does.  Each round runs every case
once on each side, in turn, and swaps which side goes first from one round
to the next.  A case is a bare import of optodicke.cli, or one command run as
python -m optodicke.cli with its stdout discarded; every run must exit 0.
Prints the median wall time of each case on both sides, the ratio of the
medians (this checkout over PARENT) and each side's quartiles, then one JSON
line of the same numbers.  Not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stdout_parity import ROOT, checkout_env, export_src

CASES = {
    "import optodicke.cli": ["-c", "import optodicke.cli"],
    **{" ".join(argv): ["-m", "optodicke.cli", *argv] for argv in (
        ["turning-point", "--zeta", "1"],
        ["sp-closure"],
        ["roots", "--g", "1.5", "--zeta", "1"],
        ["sweep", "--zeta", "1", "--g", "0:3:301"],
        ["phase-diagram", "--g", "0:3:61", "--zeta", "0:3:61"],
        ["rabi-compare", "--g", "0:3:61"],
    )},
}


def wall_time(checkout: Path, args: list[str]) -> float:
    """Seconds of one fresh interpreter run with checkout's source."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=checkout_env(checkout), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the checkout to compare with, or a git ref")
    parser.add_argument("--rounds", type=int, default=11, help="runs of each case on each side")
    args = parser.parse_args(argv)

    times = {side: {case: [] for case in CASES} for side in ("parent", "ours")}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(args.parent)
        sides = {"parent": parent if parent.is_dir() else export_src(args.parent, tmp),
                 "ours": ROOT}
        for k in range(args.rounds):
            for case, case_args in CASES.items():
                for side in (("parent", "ours") if k % 2 == 0 else ("ours", "parent")):
                    times[side][case].append(wall_time(sides[side], case_args))

    summary = {}
    print(f"{'case':58} {'parent ms':>10} {'ours ms':>10} {'ratio':>6}  quartiles (ms)")
    for case in CASES:
        parent_s, ours_s = times["parent"][case], times["ours"][case]
        quartiles = {side: [round(1e3 * q, 1) for q in statistics.quantiles(times[side][case])]
                     for side in times} if args.rounds > 1 else {}
        summary[case] = {"parent_ms": round(1e3 * statistics.median(parent_s), 1),
                         "ours_ms": round(1e3 * statistics.median(ours_s), 1),
                         "ratio": round(statistics.median(ours_s) / statistics.median(parent_s), 3),
                         "quartiles_ms": quartiles}
        row = summary[case]
        print(f"{case:58} {row['parent_ms']:10.1f} {row['ours_ms']:10.1f} {row['ratio']:6.3f}  "
              f"{quartiles.get('parent')} {quartiles.get('ours')}")
    print(json.dumps({"rounds": args.rounds, "cases": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
