"""Every defaulted parameter of the library is set by some caller.

The census walks the module-level functions and the methods of src/lvbif
(nested closures are skipped) and looks for a call in src, tests, demos or
bench that sets each defaulted parameter: by keyword, by position, or
through *args or **kw.  A call is matched on its callee name, or on the
class name for __init__.  A default that no caller sets is a constant in
disguise.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "demos", "bench")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def defaulted_parameters():
    """(callee name, parameter, positional index or None, where) for each
    defaulted parameter; the index counts the arguments a call passes, so a
    method's self or cls is not counted."""
    for path in sorted((ROOT / "src" / "lvbif").rglob("*.py")):
        tree = _parse(path)
        defs = [(fn, fn.name, 0) for fn in tree.body
                if isinstance(fn, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in fn.decorator_list)
                    name = cls.name if fn.name == "__init__" else fn.name
                    defs.append((fn, name, 0 if static else 1))
        for fn, name, implicit in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            where = f"{path.relative_to(ROOT)}:{fn.lineno} {fn.name}"
            for i, arg in enumerate(positional):
                if i >= len(positional) - len(a.defaults):
                    yield name, arg.arg, i - implicit, where
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, where


def call_sites():
    """callee name -> [(positional count, keyword names, starred)]."""
    calls = defaultdict(list)
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                if name is None:
                    continue
                starred = (any(isinstance(v, ast.Starred) for v in node.args)
                           or any(k.arg is None for k in node.keywords))
                calls[name].append((len(node.args),
                                    {k.arg for k in node.keywords}, starred))
    return calls


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    calls = call_sites()
    unset = [f"{where}: {param}"
             for name, param, index, where in defaulted_parameters()
             if not any(starred or param in keywords
                        or (index is not None and n_args > index)
                        for n_args, keywords, starred in calls[name])]
    assert not unset, "defaults no caller sets:\n" + "\n".join(unset)
