"""Every test module imports.

pytest reports a test module that fails to import as a collection error,
and a run that continues past collection errors then counts a smaller
suite instead of a failing one.  Importing each module here makes such a
module a failed test."""

import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).resolve().parent.glob("test_*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_imports(path):
    name = f"_import_check_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
