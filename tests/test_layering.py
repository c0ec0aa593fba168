"""Static checks of the package's layering.

The oracle exists only to audit the fast path, so no production module may
depend on it, and it may not depend on the code it audits.  Helpers have a
single home: a second copy of an error-free transform is a fork waiting to
drift.  The checks read the source with ``ast`` and import nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

import gammatail

SRC = Path(gammatail.__file__).parent
TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
         for p in sorted(SRC.glob("*.py"))}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The gammatail modules a source tree imports, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                pkg, _, mod = alias.name.partition(".")
                if pkg == "gammatail" and mod:
                    found.add(mod.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                pkg, _, module = module.partition(".")
                if pkg != "gammatail":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_oracle_is_validation_only_and_two_sum_has_one_home():
    imports = {name: _imported_modules(tree) for name, tree in TREES.items()}
    assert {name for name, mods in imports.items()
            if "oracle" in mods} == {"acceptance"}
    audited = {"tailprob", "median", "certify", "acceptance", "cli"}
    assert imports["oracle"] & audited == set()
    homes = [name for name, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name.lstrip("_") == "two_sum"]
    assert homes == ["_dd"]
