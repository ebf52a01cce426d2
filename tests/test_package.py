"""The package surface: what ``subvacuum`` exports and the README uses."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import subvacuum

README = Path(__file__).resolve().parent.parent / "README.md"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(subvacuum.__path__) if not info.name.startswith("_"))


def test_every_exported_name_resolves():
    assert len(set(subvacuum.__all__)) == len(subvacuum.__all__)
    for name in subvacuum.__all__:
        assert getattr(subvacuum, name) is not None, name


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_module_all_names_are_defined_there(module_name):
    # The benchmark tracer wraps each module's functions by its ``__all__``,
    # so a stale export fails there at install; catch it here instead.
    module = importlib.import_module(f"subvacuum.{module_name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert name in vars(module), f"{module_name}.{name} does not resolve"
        obj = vars(module)[name]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"{module_name}.{name} is defined in {obj.__module__}"
