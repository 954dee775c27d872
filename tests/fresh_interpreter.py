"""Run code, or one CLI command, in a fresh interpreter and list the modules it loaded."""

import os
import subprocess
import sys
from pathlib import Path

import optodicke

_SRC = str(Path(optodicke.__file__).resolve().parent.parent)
_RUN_COMMAND = """
import contextlib, io, optodicke.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = optodicke.cli.run(sys.argv[1:])
if code != 0:
    sys.exit(f"exit code {code}")
"""


def loaded_modules(code: str = "", argv: list[str] | None = None) -> set[str]:
    """Names in sys.modules after a fresh interpreter runs code, then the command argv if given.

    The interpreter sees the tests' PYTHONPATH with the package's source
    first.  A command runs through optodicke.cli.run with its stdout
    discarded; a failing command or code raises CalledProcessError.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    script = "import sys\n" + code + ("\n" + _RUN_COMMAND if argv is not None else "") + \
        "\nprint(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", script, *(argv or [])], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())
