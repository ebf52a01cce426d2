"""List the function-body lines of ``src/subvacuum`` that no tier-1 test runs.

Runs tier-1 in this process under a standard-library line tracer
(``sys.settrace`` and ``threading.settrace``) that traces only frames whose
code lives under ``src/subvacuum``, then prints every statement line inside a
function body (found with ``ast``) that no traced frame ran, one
``path:line: source`` per line, and a count.  Lines that only child
processes run (``python -m subvacuum``) are listed too: the tracer does not
follow them.  Needs no coverage package.

Run from the repository root:

    PYTHONPATH=src python .github/unexecuted_lines.py

Exits 1 if any line is listed, else with pytest's exit status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "subvacuum"
#: tier-1's arguments, as the workflow's tier-1 step passes them.
TIER1 = ["-q", "--continue-on-collection-errors"]

executed: set[tuple[str, int]] = set()
_inside: dict[str, bool] = {}


def _line(frame, event, arg):
    if event == "line":
        executed.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _inside.get(name)
    if inside is None:
        inside = _inside[name] = Path(os.path.realpath(name)).is_relative_to(SRC)
    return _line if inside else None


def body_lines(path: Path) -> dict[int, str]:
    """Each statement line inside a function body, with its source text.

    A docstring, and ``global`` and ``nonlocal`` declarations, run no code
    and are left out.
    """
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    lines = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body[1:] if ast.get_docstring(fn, clean=False) is not None else fn.body
        for stmt in (node for top in body for node in ast.walk(top) if isinstance(node, ast.stmt)):
            if not isinstance(stmt, (ast.Global, ast.Nonlocal)):
                lines[stmt.lineno] = text[stmt.lineno - 1].strip()
    return lines


def main() -> int:
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(TIER1)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(os.path.realpath(name), line) for name, line in executed}
    missed = [
        f"{path.relative_to(SRC.parents[1])}:{line}: {text}"
        for path in sorted(SRC.glob("*.py"))
        for line, text in sorted(body_lines(path).items())
        if (str(path), line) not in ran
    ]
    for entry in missed:
        print(entry)
    print(f"{len(missed)} unexecuted function-body lines in {SRC.relative_to(SRC.parents[1])}")
    return 1 if missed else int(code)


if __name__ == "__main__":
    sys.exit(main())
