"""The lazy package surface, and what each entry point imports.

``import gammatail`` resolves its exports on first access (PEP 562), so a
cold command pays only for the layers it runs.  The scalar commands
(``eval``, ``median --a``, ``median`` over a grid) and the parser must
not load numpy or the batched, quadrature, oracle and acceptance layers,
and no command loads ``numpy.random``, ``numpy.polynomial``,
``fractions``, ``decimal`` or ``dataclasses``; fresh interpreters check
that.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammatail


def test_every_export_is_its_home_modules_object():
    names = [name for name in gammatail.__all__ if name != "__version__"]
    assert len(set(names)) == len(names) == len(gammatail._HOME_OF)
    for name in names:
        home = importlib.import_module(f"gammatail.{gammatail._HOME_OF[name]}")
        assert getattr(gammatail, name) is getattr(home, name), name


def test_dir_lists_every_export():
    assert set(gammatail.__all__) <= set(dir(gammatail))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_export"):
        gammatail.no_such_export  # noqa: B018


def test_star_import_binds_every_export():
    namespace: dict[str, object] = {}
    exec("from gammatail import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gammatail.__all__)
    assert namespace["tail_prob"] is gammatail.tail_prob


# Runs `import gammatail` (args null) or `python -m gammatail ARGS`, then
# prints the names of every loaded module as the last line.
_PROBE = r"""
import json, runpy, sys
args = json.loads(sys.argv[1])
if args is None:
    import gammatail
else:
    sys.argv = ["gammatail", *args]
    try:
        runpy.run_module("gammatail", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
sys.stdout.write("\n" + json.dumps(sorted(sys.modules)) + "\n")
"""

_BATCH_LAYERS = {"numpy", "gammatail._lanes", "gammatail._dd",
                 "gammatail.certify", "gammatail.quadrature",
                 "gammatail.oracle", "gammatail.acceptance"}


def _loaded(args: list[str] | None) -> set[str]:
    """The modules a fresh interpreter has loaded after the probe."""
    root = str(Path(gammatail.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=root if not path else os.pathsep.join((root, path)))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(args)],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_import_gammatail_loads_no_submodule_and_no_numpy():
    loaded = _loaded(None)
    assert "gammatail" in loaded
    assert {m for m in loaded
            if m.startswith("gammatail.") or m == "numpy"} == set()


@pytest.mark.parametrize("args", [["eval", "--a", "5", "--c", "0.1"],
                                  ["median", "--a", "2"],
                                  ["median", "--a-min", "1", "--a-max", "2",
                                   "--n", "3"],
                                  ["median", "--a-min", "1", "--a-max", "2",
                                   "--n", "3", "--scale", "linear"]],
                         ids=["eval", "median", "median-log-grid",
                              "median-linear-grid"])
def test_scalar_commands_load_no_numpy_and_no_batch_layer(args):
    # Every grid is built in Python floats, libm powers on a log scale: a
    # median over one solves shape by shape without numpy.
    loaded = _loaded(args)
    assert "gammatail.tailprob" in loaded
    assert loaded & _BATCH_LAYERS == set()
    assert loaded & {"fractions", "decimal"} == set()


def test_help_loads_neither_acceptance_nor_numpy():
    # The parser needs the error types and the margin constant alone: no
    # median solver and no tail layer.
    loaded = _loaded(["--help"])
    assert {m for m in loaded if m.startswith("gammatail.")} == {
        "gammatail.cli", "gammatail.errors", "gammatail.specfun",
        "gammatail._series"}
    assert "numpy" not in loaded


@pytest.mark.parametrize("args, layers", [
    (["scan", "--c", "0.5", "--n", "5"],
     {"_lanes", "_series", "cli", "errors", "specfun", "tailprob"}),
], ids=["scan"])
def test_grid_commands_load_numpy_but_no_certification_layer(args, layers):
    # ScanSpec lives in tailprob: a scan's lanes need numpy, not certify,
    # quadrature or the double-double layer.
    loaded = _loaded(args)
    assert "numpy" in loaded
    assert {m for m in loaded if m.startswith("gammatail.")} == {
        f"gammatail.{name}" for name in layers}


# Modules no command needs: the seeded draws come from the standard
# library's random.Random, the Gauss-Legendre rule is frozen as literals,
# the Fraction arithmetic runs only when _series' tables are rebuilt, and
# the records are NamedTuples, which generate no code at import (numpy
# does not load dataclasses either).
_UNNEEDED = {"numpy.random", "numpy.polynomial", "fractions", "decimal",
             "dataclasses"}


@pytest.mark.parametrize("args", [["verify-all", "--json"],
                                  ["certify", "--c", "0.5"],
                                  ["scan", "--c", "0.5", "--n", "5"]],
                         ids=["verify-all", "certify", "scan"])
def test_batch_commands_load_no_random_polynomial_or_fractions(args):
    loaded = _loaded(args)
    assert "numpy" in loaded
    assert loaded & _UNNEEDED == set()
