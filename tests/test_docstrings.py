"""Names that the package's docstrings and comments cite exist.

A private helper that is renamed or merged away leaves its name behind in
the prose that explains its callers.  Every double-backticked underscore
name, ``_name`` or ``module._name`` (a call such as ``_name(x)`` counts
too), must be an attribute of the module it is written in, or of the
module or class that qualifies it."""

import importlib
import re
from pathlib import Path

import pytest

import quiverinv

SOURCES = sorted(Path(quiverinv.__file__).resolve().parent.glob("*.py"))
CITED = re.compile(r"``(?:([A-Za-z]\w*)\.)?(_\w+)(?=``|\()")


def _cited(path):
    """``(line number, qualifier or None, name)`` of each cited name."""
    for number, line in enumerate(path.read_text().splitlines(), 1):
        for match in CITED.finditer(line):
            yield number, match.group(1), match.group(2)


def test_pattern_finds_cited_names():
    # the pattern finds names where they are known to be cited
    siweights = Path(quiverinv.__file__).resolve().parent / "siweights.py"
    names = {name for _, _, name in _cited(siweights)}
    assert {"_multisets", "_rect_dim", "_coef"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_cited_private_names_exist(path):
    module = importlib.import_module(f"quiverinv.{path.stem}")
    stale = []
    for number, qualifier, name in _cited(path):
        owner = module
        if qualifier is not None:
            owner = getattr(module, qualifier, None)
            if owner is None:
                try:
                    owner = importlib.import_module(f"quiverinv.{qualifier}")
                except ModuleNotFoundError:
                    pass
        if owner is None or not hasattr(owner, name):
            cited = f"{qualifier}.{name}" if qualifier else name
            stale.append(f"{path.name}:{number}: {cited}")
    assert stale == []
