"""The program names the bench reaches by name must exist.

perfbench/spans.py wraps gammatail functions by attribute and
perfbench/worker.py reads the callables it times the same way, so a
deleted or renamed name would otherwise show up only when the bench runs.
Both files are read with ``ast``; the names they take are resolved on the
package.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module_attributes(path: Path) -> set[tuple[str, str]]:
    """(gammatail module, attribute) for every attribute a function reads
    off a name it bound to importlib.import_module("gammatail...")."""
    found = set()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        modules = {}
        for node in ast.walk(fn):
            call = node.value if isinstance(node, ast.Assign) else None
            if (isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "importlib.import_module"
                    and isinstance(call.args[0], ast.Constant)
                    and call.args[0].value.startswith("gammatail")):
                for target in node.targets:
                    modules[target.id] = call.args[0].value
        found.update((modules[node.value.id], node.attr)
                     for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules)
    return found


@pytest.mark.parametrize("name", ["spans.py", "worker.py"])
def test_every_name_the_bench_reads_resolves(name):
    names = _module_attributes(BENCH / name)
    assert names
    missing = {(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == set()


def test_every_criterion_takes_the_bench_call():
    # worker.py calls each criterion as fn(1.0, None).
    assert ("gammatail.acceptance", "CRITERIA") in _module_attributes(
        BENCH / "worker.py")
    from gammatail.acceptance import CRITERIA

    for cid, fn in CRITERIA.items():
        inspect.signature(fn).bind(1.0, None)
