"""Static checks of the package's layering.

The oracle exists only to audit the fast path, so no production module may
depend on it, and it may not depend on the code it audits.  Helpers have a
single home: a second copy of an error-free transform, or of a kernel
formula that the scalar and the lane path share, is a fork waiting to
drift.  No capped iterative loop may run out of iterations silently.  An
exported function needs a caller in another module or a stated reason to be
public.  The checks read the source with ``ast`` and import nothing.
"""

from __future__ import annotations

import ast
import re
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
    assert _homes("two_sum") == ["_dd"]


def _unused_imports() -> set[tuple[str, int, str]]:
    """(module, line, name) of each imported name that its scope never
    reads: the module for a module-level import, the function for one
    inside a function.  Lines marked ``# noqa: F401`` are left out."""
    found = set()
    for module, tree in TREES.items():
        lines = (SRC / f"{module}.py").read_text(encoding="utf-8").splitlines()
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.end_lineno - 1]):
                continue
            scope = parent[node]
            while not isinstance(scope, (ast.Module, ast.FunctionDef)):
                scope = parent[scope]
            read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
            found.update((module, node.lineno, name) for name in (
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names) if name not in read)
    return found


def test_no_module_imports_a_name_it_does_not_use():
    # An import left behind by a deletion hides that the name's last user
    # is gone; the one deliberate re-export is marked noqa: F401.
    assert _unused_imports() == set()


# numpy submodules no module may use: numpy.random's streams are not
# pinned across numpy versions (NEP 19), and both cost megabytes at import.
_BANNED_NUMPY = {"random", "polynomial"}
# numpy grid builders no module may use: their powers take numpy's SIMD
# dispatch, so a grid point could differ by machine.  ScanSpec builds every
# log grid with libm.
_BANNED_GRIDS = {"geomspace", "logspace"}
# Standard-library modules no module may import when it is imported.
_BANNED_AT_IMPORT = {"fractions", "decimal"}


def _banned_numpy_uses(tree: ast.Module,
                       banned: set[str] = _BANNED_NUMPY) -> set[str]:
    """Each np.random, numpy.polynomial, ... (numpy's names in banned) a
    source tree names or imports."""
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in banned
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.add(f"{node.value.id}.{node.attr}")
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        found.update(name for name in names
                     if name.split(".")[:2] in (["numpy", sub]
                                                for sub in banned))
    return found


def _import_time_imports(tree: ast.Module) -> set[str]:
    """The top-level packages a source tree imports when it is imported:
    its body, if and try blocks and class bodies included, but not the
    functions it defines or its `if TYPE_CHECKING:` blocks."""
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, ast.Try):
            stack.extend(node.body + node.orelse + node.finalbody)
            stack.extend(n for handler in node.handlers for n in handler.body)
        elif isinstance(node, ast.ClassDef):
            stack.extend(node.body)
    return found


def test_no_module_uses_numpy_random_or_polynomial():
    assert {module: uses for module, tree in TREES.items()
            if (uses := _banned_numpy_uses(tree))} == {}
    # The rule sees each form of use.
    assert _banned_numpy_uses(ast.parse(
        "import numpy.random\nfrom numpy import polynomial\n"
        "from numpy.random import default_rng\n"
        "def f():\n    return np.random.default_rng(1), numpy.polynomial\n"
    )) == {"numpy.random", "numpy.polynomial", "numpy.random.default_rng",
           "np.random"}


def test_no_module_spaces_a_grid_with_numpy_geomspace_or_logspace():
    assert {module: uses for module, tree in TREES.items()
            if (uses := _banned_numpy_uses(tree, _BANNED_GRIDS))} == {}
    assert _banned_numpy_uses(ast.parse(
        "from numpy import logspace\n"
        "def f():\n    return np.geomspace(1.0, 2.0, 3)\n"
    ), _BANNED_GRIDS) == {"numpy.logspace", "np.geomspace"}


def test_no_module_spaces_a_grid_with_numpy_linspace():
    # ScanSpec.grid() builds every grid, linear ones too, in Python floats.
    assert {module: uses for module, tree in TREES.items()
            if (uses := _banned_numpy_uses(tree, {"linspace"}))} == {}


def test_no_module_imports_fractions_or_decimal_when_imported():
    # Fraction arithmetic is for rebuilding tables, inside the builder.
    assert {module: found for module, tree in TREES.items()
            if (found := _import_time_imports(tree) & _BANNED_AT_IMPORT)
            } == {}
    assert _import_time_imports(ast.parse(
        "from fractions import Fraction\n"
        "if TYPE_CHECKING:\n    import decimal\n"
        "def f():\n    import decimal\n")) == {"fractions"}


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The top-level packages a source tree imports anywhere in it, by
    absolute import."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_no_module_imports_dataclasses():
    # The records are NamedTuples: a frozen dataclass generates and execs
    # its methods at every import, which a cold command pays for.
    assert {module for module, tree in TREES.items()
            if "dataclasses" in _absolute_imports(tree)} == set()
    assert _absolute_imports(ast.parse(
        "def f():\n    from dataclasses import asdict\n")) == {"dataclasses"}


def _homes(name: str) -> list[str]:
    """The modules that define a function of this name, or a lane copy of
    it, leading underscores and a _lanes suffix aside."""
    def key(fn: str) -> str:
        return fn.lstrip("_").removesuffix("_lanes")
    return [module for module, tree in TREES.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and key(node.name) == key(name)]


def _called_names(module: str, function: str) -> set[str]:
    """The names a function calls, directly or as an attribute."""
    fn = next(node for node in ast.walk(TREES[module])
              if isinstance(node, ast.FunctionDef) and node.name == function)
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


# Formulas written once for floats and arrays, (home, name) -> the scalar
# and the lane function that call it.  Only the loops keep a lane form of
# their own.  The rules that several paths share -- Q's lane core, the
# oracle's plateau and the CLI's CSV-or-JSON choice -- are listed with
# every path that calls them.
_KERNEL_PATHS = (("specfun", "_q_detail"),
                 ("_lanes", "_reg_gamma_q_lanes"))
_PREFACTOR_PATHS = (("specfun", "_log_gamma_norm"),
                    ("_lanes", "_log_gamma_norm_lanes"))
_HALLEY_PATHS = (("specfun", "_halley_iterate"),
                 ("_lanes", "_halley_lane_step"))
_WM1_NEWTON_PATHS = (("specfun", "lambert_wm1"),
                     ("_lanes", "_wm1_newton_lane_step"))
SHARED_FORMULAS = {
    ("specfun", "_q_branches"): _KERNEL_PATHS,
    ("specfun", "_cf_result"): _KERNEL_PATHS,
    ("specfun", "_series_complement_result"): _KERNEL_PATHS,
    ("specfun", "_tail_series_result"): _KERNEL_PATHS,
    ("specfun", "_log_gamma_norm_stirling"): _PREFACTOR_PATHS,
    ("specfun", "_log_gamma_norm_direct"): _PREFACTOR_PATHS,
    ("specfun", "_halley_residual"): _HALLEY_PATHS,
    ("specfun", "_halley_step"): _HALLEY_PATHS,
    ("specfun", "_wm1_newton_step"): _WM1_NEWTON_PATHS,
    ("specfun", "_root_converged"): _HALLEY_PATHS + _WM1_NEWTON_PATHS,
    ("tailprob", "_arg_rounding_err"): (("tailprob", "tail_prob_detail"),
                                        ("tailprob", "tail_prob_many")),
    ("_lanes", "_reg_gamma_q_core"): (("_lanes", "reg_gamma_q_many"),
                                      ("tailprob", "tail_prob_many")),
    ("oracle", "oracle_tail_prob_many"): (("oracle", "oracle_tail_prob"),
                                          ("acceptance", "c04_witnesses")),
    ("cli", "_emit_rows"): tuple(("cli", f"_cmd_{verb}") for verb in (
        "eval", "scan", "median", "means")),
    ("specfun", "_mean_scale"): (("specfun", "refined_mean"),
                                 ("certify", "check_mean_chain")),
    ("_lanes", "_ordered_extreme"): (("certify", "check_mean_chain"),
                                     ("median", "check_median_bracket"),
                                     ("acceptance",
                                      "c08_direction_form_signs")),
}


def test_each_shared_formula_has_one_home_and_both_paths_call_it():
    for (home, name), callers in SHARED_FORMULAS.items():
        assert _homes(name) == [home], name
        for caller in callers:
            assert name in _called_names(*caller), (name, caller)


# Capped loops that stop early on convergence but cannot reach their cap,
# so they end without a raise: (module, function) -> why.
LOOPS_THAT_CANNOT_RUN_OUT = {}

_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*$")


def _is_cap(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    return isinstance(node, ast.Name) and bool(_CONSTANT.match(node.id))


def _is_capped(loop: ast.For | ast.While) -> bool:
    """A while bounded by a literal or constant, a for over a range with
    one, or a for over a constant table."""
    if isinstance(loop, ast.While):
        nodes = list(ast.walk(loop.test))
        return (any(isinstance(n, ast.Compare) for n in nodes)
                and any(_is_cap(n) for n in nodes))
    it = loop.iter
    if isinstance(it, ast.Call) and isinstance(it.func, ast.Name):
        if it.func.id == "range":
            return any(_is_cap(n) for arg in it.args for n in ast.walk(arg))
        if it.func.id == "enumerate":
            it = it.args[0]
    return isinstance(it, ast.Name) and bool(_CONSTANT.match(it.id))


def _early_exits(loop: ast.For | ast.While) -> tuple[bool, bool]:
    """Whether the loop's body has a break of its own, and a return."""
    has_break = has_return = False
    stack = [(node, False) for node in loop.body]
    while stack:
        node, nested = stack.pop()
        if isinstance(node, ast.Break) and not nested:
            has_break = True
        elif isinstance(node, ast.Return):
            has_return = True
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        inner = nested or isinstance(node, (ast.For, ast.While))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    return has_break, has_return


def _loops_that_can_run_out_silently() -> set[tuple[str, str]]:
    """(module, function) of every capped loop with an early exit whose
    exhaustion does not raise: a break needs `else: raise`, a loop left
    only by return needs a raise right after it."""
    found = set()
    for module, tree in TREES.items():
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for parent in ast.walk(tree):
            for field in ("body", "orelse", "finalbody"):
                block = getattr(parent, field, None)
                if not isinstance(block, list):
                    continue
                for i, loop in enumerate(block):
                    if not (isinstance(loop, (ast.For, ast.While))
                            and _is_capped(loop)):
                        continue
                    has_break, has_return = _early_exits(loop)
                    if has_break:
                        raises = bool(loop.orelse) and isinstance(
                            loop.orelse[-1], ast.Raise)
                    elif has_return:
                        raises = (i + 1 < len(block)
                                  and isinstance(block[i + 1], ast.Raise))
                    else:
                        continue
                    if not raises:
                        found.add((module, owner[loop]))
    return found


def test_no_capped_loop_runs_out_silently():
    # A convergence loop that reaches its cap must raise, not return a
    # partial sum; the allowlist holds loops that provably stop in time.
    assert _loops_that_can_run_out_silently() == set(LOOPS_THAT_CANNOT_RUN_OUT)


# Every `raise CertificationError` site, (module, qualified function) -> the
# condition of the `if` it sits in.  Exit 1 must mean a real contradiction,
# so each guard compares a margin with STRICT_MARGIN times its error bound.
CERTIFICATION_RAISES = {
    ("certify", "check_threshold_chain"): ("d < -STRICT_MARGIN * err_sum",),
    ("median", "_bracket_failure"): ("margin < -STRICT_MARGIN * err",),
    ("median", "MedianResult.__new__"):
        ("escape > STRICT_MARGIN * slack",),
}

_MARGIN_GUARD = re.compile(r"\w+ [<>] -?STRICT_MARGIN \* \w+")


def _certification_raises() -> dict[tuple[str, str], tuple]:
    """(module, qualified function) -> the guard of each CertificationError
    raise in it, as source; None for a raise not directly inside an if."""
    found: dict[tuple[str, str], tuple] = {}
    for module, tree in TREES.items():
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not (isinstance(exc, ast.Name)
                    and exc.id == "CertificationError"):
                continue
            up = parent[node]
            guard = (ast.unparse(up.test)
                     if isinstance(up, ast.If) and node in up.body else None)
            names = []
            while up in parent:
                if isinstance(up, (ast.FunctionDef, ast.ClassDef)):
                    names.append(up.name)
                up = parent[up]
            site = (module, ".".join(reversed(names)))
            found[site] = found.get(site, ()) + (guard,)
    return found


def test_every_certification_error_is_margin_guarded():
    # A certification error must come from a certified contradiction, never
    # from a sign that rounding alone could flip.
    assert _certification_raises() == CERTIFICATION_RAISES
    for site, guards in CERTIFICATION_RAISES.items():
        assert all(_MARGIN_GUARD.fullmatch(g) for g in guards), site


# Exported functions that no other module of the package calls,
# (module, function) -> why they are public.  Any other exported function
# without a caller is dead weight; result records and errors are public as
# what the exported functions return or raise, so only functions are held
# to this.
PUBLIC_WITHOUT_CALLER = {
    ("specfun", "lambert_w0"):
        "x1(z) = -W0(-z/e), the closed form of the lower branch root that "
        "branch_roots evaluates",
    ("specfun", "lambert_wm1"):
        "x2(z) = -W-1(-z/e), the closed form of the upper branch root",
    ("specfun", "refined_mean"):
        "the refined mean of the paper's chain L < refined < (x+y)/2 for "
        "one pair; check_mean_chain certifies it with a bound",
    ("specfun", "threshold_ratio"):
        "the paper's lambda(y), the threshold between the direction regimes",
    ("tailprob", "tail_prob"):
        "the paper's centered tail P(X_a - a > c) for one (a, c), the value "
        "of tail_prob_detail without its bound",
    ("tailprob", "ratio_parts"):
        "the paper's head and tail integrals for one (u, c), the one-lane "
        "call of ratio_parts_many",
    ("tailprob", "direction_form"):
        "the paper's direction form, whose sign is opposite to dr/dz; "
        "direction_form_detail adds its bound",
    ("certify", "integrated_defect"):
        "the paper's integrated defect T(eps), whose small-eps slope "
        "check_asymptotic_slope fits",
    ("certify", "rational_stage"):
        "-2y/(1 + 4y + y^2), the closed end of the threshold chain that "
        "check_threshold_chain certifies",
    ("certify", "rational_stage_deriv"):
        "the derivative of rational_stage, whose sign check_threshold_chain "
        "checks",
}


def _exported_functions() -> set[tuple[str, str]]:
    """(home module, name) of every function in the lazy export table,
    gammatail._HOMES."""
    init = TREES["__init__"]
    table = next(ast.literal_eval(node.value) for node in init.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_HOMES"])
    return {(home, name) for home, names in table.items() for name in names
            if any(isinstance(node, ast.FunctionDef) and node.name == name
                   for node in TREES[home].body)}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every name a tree reads, imports or looks up as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_is_called_or_listed():
    # A public function that no other module calls must say why it is
    # public, so an export outliving its last caller is deleted or argued.
    used = {module: _referenced_names(tree)
            for module, tree in TREES.items() if module != "__init__"}
    uncalled = {(home, name) for home, name in _exported_functions()
                if not any(name in names for module, names in used.items()
                           if module != home)}
    assert uncalled == set(PUBLIC_WITHOUT_CALLER)


# Per-point functions that have a lane form -> that form.
# direction_form_detail and integrand_ratio are their own lane forms, on
# branch_roots_many's lanes.
LANE_FORMS = {
    "branch_roots": "_lanes.branch_roots_many",
    "direction_form_detail": "direction_form_detail(branch_roots_many(z), c)",
    "integrand_ratio": "integrand_ratio(branch_roots_many(z), c)",
    "ratio_parts": "ratio_parts_many",
    "tail_prob_detail": "tail_prob_many",
}
# Loops of acceptance.py that still call a package function once per point,
# (criterion function, callee) -> why no lane form serves.
PER_POINT_LOOPS = {
    ("_monotone_cases", "_default_scan"):
        "builds each offset's ScanSpec, a record with no lane form",
    ("_monotone_cases", "certify_monotone"):
        "one certification per offset, each scanning its 400 shapes on "
        "lanes; C02 and C03 take five and four offsets",
    ("c04_witnesses", "find_witness"):
        "one witness per offset, four offsets; each is three scalar "
        "tail_prob_detail calls at the formula's shapes",
    ("c06_median_solver", "gamma_median"):
        "each median solve is a sequential root search, a few kernel calls "
        "each, with no lane form",
    ("c08_direction_form_signs", "_ordered_extreme"):
        "one ordered max per offset, four offsets; each walks its whole "
        "1,000-point row",
}


def _on_lanes(arg: ast.expr, lanes: set[str]) -> bool:
    """Whether a roots argument is branch_roots_many's result: the call
    itself, or a name bound to it."""
    if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
        return arg.func.id == "branch_roots_many"
    return isinstance(arg, ast.Name) and arg.id in lanes


def _per_point_loop_calls() -> set[tuple[str, str]]:
    """(function, callee) for each call in a loop body of acceptance.py to a
    function it imports from the package, other than a lane form: a *_many
    function, or direction_form_detail and integrand_ratio on lanes.  The
    iterable of a for loop or of a comprehension's first generator is
    evaluated once and is not part of the body."""
    tree = TREES["acceptance"]
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    found = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        lanes = {target.id for node in ast.walk(fn)
                 if isinstance(node, ast.Assign)
                 and _on_lanes(node.value, set())
                 for target in node.targets if isinstance(target, ast.Name)}
        for loop in ast.walk(fn):
            if isinstance(loop, (ast.For, ast.While)):
                body = loop.body + loop.orelse
            elif isinstance(loop, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                gens = loop.generators
                body = [getattr(loop, f) for f in ("elt", "key", "value")
                        if hasattr(loop, f)]
                body += [c for g in gens for c in g.ifs]
                body += [g.iter for g in gens[1:]]
            else:
                continue
            for node in (n for part in body for n in ast.walk(part)):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)):
                    continue
                name = node.func.id
                if (name not in imported or name[0].isupper()
                        or name.endswith("_many")):
                    continue
                if (name in ("direction_form_detail", "integrand_ratio")
                        and node.args and _on_lanes(node.args[0], lanes)):
                    continue
                found.add((fn.name, name))
    return found


def test_acceptance_loops_call_lane_forms():
    # A criterion that loops over its points calling a function that has a
    # lane form pays the interpreter per point where one batched call
    # would do; the loops left are listed with the reason they stay.
    assert _per_point_loop_calls() == set(PER_POINT_LOOPS)
    assert not {callee for _, callee in PER_POINT_LOOPS} & set(LANE_FORMS)
