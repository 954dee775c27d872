"""README's Library example runs, and the count of public names it states is the package's."""

import re
from pathlib import Path

import optodicke

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_name_count_holds():
    text = README.read_text(encoding="utf-8")
    example = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(example, "README.md (Library)", "exec"), {})
    assert re.findall(r"each of its (\d+) public names", text) == [str(len(optodicke.__all__))]
