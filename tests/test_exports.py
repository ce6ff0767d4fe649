"""lvbif.__all__ is the one export list of the package.

The submodules define no __all__ of their own; their names are reached as
attributes (lvbif.regions.SEP_TOL), which no __all__ affects.
"""

from __future__ import annotations

import ast
from pathlib import Path

import lvbif

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lvbif"


def test_star_import_binds_exactly_the_export_list():
    names: dict = {}
    exec("from lvbif import *", names)
    names.pop("__builtins__")
    assert sorted(names) == sorted(lvbif.__all__)
    assert len(set(lvbif.__all__)) == len(lvbif.__all__)


def test_no_submodule_defines_an_export_list():
    defining = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defining += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id == "__all__"
                     and isinstance(node.ctx, ast.Store)]
    assert not defining, defining
