"""README's Library example runs, the count of public names it states is the
package's, its Command line section names every flag, and every flag it
names exists."""

import re
from pathlib import Path

import optodicke
from optodicke import cli
from test_cli import RETIRED_KNOBS

README = Path(__file__).resolve().parents[1] / "README.md"
LONG_OPTION = re.compile(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?")


def test_library_example_runs_and_name_count_holds():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md (Library)", "exec"), {})
    assert re.findall(r"each of its (\d+) public names", text) == [str(len(optodicke.__all__))]


def test_command_line_section_names_every_long_option():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)
    named = set(LONG_OPTION.findall(section))
    options = {(command, option) for command, parser in cli._build_parser().commands.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--")}
    assert sorted((c, o) for c, o in options if o not in named) == []


def test_every_flag_named_exists():
    # a flag README names is an option of some command, a retired knob (named
    # as such), or pip's: a flag that a change removed fails here
    options = {option for parser in cli._build_parser().commands.values()
               for action in parser._actions for option in action.option_strings}
    retired = {flag for flag, _, _ in RETIRED_KNOBS}
    named = set(LONG_OPTION.findall(README.read_text(encoding="utf-8")))
    assert sorted(named - options - retired - {"--no-build-isolation"}) == []
