"""The package surface: what ``subvacuum`` exports and the README uses."""

import re
from pathlib import Path

import subvacuum

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(set(subvacuum.__all__)) == len(subvacuum.__all__)
    for name in subvacuum.__all__:
        assert getattr(subvacuum, name) is not None, name


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
