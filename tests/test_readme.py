"""README's Library example runs, the count of public names it states is the
package's, and its Command line section names every flag."""

import re
from pathlib import Path

import optodicke
from optodicke import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_name_count_holds():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md (Library)", "exec"), {})
    assert re.findall(r"each of its (\d+) public names", text) == [str(len(optodicke.__all__))]


def test_command_line_section_names_every_long_option():
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", text, re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section))
    options = {(command, option) for command, parser in cli._build_parser().commands.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--")}
    assert sorted((c, o) for c, o in options if o not in named) == []
