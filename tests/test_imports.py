"""Every module-level import in the package modules and in the tests is
used, and every package definition is read.

Deleting code tends to leave its imports behind; this walks each module's
syntax tree (stdlib `ast`, nothing imported) and reports names bound by a
top-level import that the module never reads.  `__init__.py` is skipped
because its imports are the package's re-exports, and `__future__`
imports bind no name.  Likewise a helper whose last caller is gone, or
that only tests call, is reported.  An export from `__init__` is not a
reader: a name no package module reads is kept only when KEPT_EXPORTS
lists it, with the reason it stays.  An import inside a function of a
package module is reported too: a package module imported there hides
an import cycle, and any import there escapes the unused-import check,
which reads module-level imports only.  So is a reference module
`tests/*_oracle.py` that no test module imports: pytest does not collect
it, so nothing else would notice it going unused.  And so is a defaulted
parameter of a package function that no package call passes, by keyword
or by position: a knob only its default ever sets is kept only when
KEPT_PARAMETERS lists it, with the reason it stays.

Only `perm` calls `PermutationGroup`: a group is built for what the
program is given or closes, and a subgroup it derives is held as
members of its group, image tuples or table positions.  Likewise
`perm.as_permutation` is called only where outside input becomes a
permutation: an alpha file, cycle notation and a matrix group's
translations.  A product or inverse of checked image tuples is a
bijection by construction, and is not checked again.

No package module imports `argparse`, `dataclasses` or `pathlib`, and
importing `cli` loads none of `argparse`, `gettext`, `locale`,
`dataclasses` and `inspect`: the command line reads argv from its own
table, a report is a dict and a record a NamedTuple, so a process pays
no parser or class set-up before its work.  An input file is opened by
the path as given and read as bytes, so no command parses a path in
Python or runs the text layer's decoder, and `pathlib` (with the
`urllib.parse` it brings) stays unloaded.  Nor does importing the
package, or reading its data file, load `importlib.resources`.

Last, the bench's traced rounds read a work counter off the results of
some package functions (`RESULT_COUNTERS` in `bench/spans.py`).  Each
extractor is applied here to a real result of the function it names, so
a changed return type fails a test, not a traced round."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import group_oracle
from birkhoffsym.exact import RationalMatrix
from birkhoffsym.hull import IncidenceStructure
from birkhoffsym.perm import named_group

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "birkhoffsym"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))

# Exports that no package module reads, each with the reason it stays.
KEPT_EXPORTS = {
    "verify_gamma_acts": "called by bench/worker.py",
}

# Defaulted parameters that no package call passes, each with the reason
# it stays.
KEPT_PARAMETERS = {
    "cli.main(argv)": "the tests and bench/worker.py run commands in "
                      "process through it",
    "reppoly.uniqueness_check(catalog)": "bench/worker.py passes conjugated "
                                         "catalogs",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each import statement at module level."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, including names inside quoted
    annotations such as -> "PermutationGroup"."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def test_modules_found():
    assert {p.name for p in MODULES} >= {"perm.py", "exact.py", "cli.py"}


def unused_imports(path: Path) -> dict[str, int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = read_names(tree)
    return {name: line for name, line in imported_names(tree).items()
            if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_test_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.name)
def test_no_fraction_module_is_imported(path):
    # a rational is integers over one denominator from text to report;
    # `fractions` and `numbers` would bring back a second number form
    modules = imported_modules(ast.parse(path.read_text(), filename=str(path)))
    assert not modules & {"fractions", "numbers"}, path.name


def test_detects_a_fraction_module_import():
    tree = ast.parse("from fractions import Fraction\nimport numbers.abc\n"
                     "from .exact import RationalMatrix\n")
    assert imported_modules(tree) == {"fractions", "numbers"}


@pytest.mark.parametrize("path", MODULES + [PACKAGE / "__init__.py"],
                         ids=lambda p: p.name)
def test_no_package_module_imports_argparse(path):
    # `cli.read_argv` reads argv from the `COMMANDS` table; building an
    # argparse parser cost each process milliseconds before any work, and
    # importing `dataclasses` and decorating each report as much again;
    # `pathlib` parses each path in Python, and brings `urllib.parse`
    modules = imported_modules(ast.parse(path.read_text(), filename=str(path)))
    assert not modules & {"argparse", "dataclasses", "pathlib"}, path.name


def test_cli_import_leaves_argparse_gettext_and_locale_unloaded():
    # argparse brings gettext, and gettext brings locale, lazily or not;
    # dataclasses brings inspect
    code = ("import sys, birkhoffsym.cli; print(' '.join(sorted("
            "{'argparse', 'gettext', 'locale', 'dataclasses', 'inspect'}"
            " & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_package_import_leaves_importlib_resources_unloaded():
    # `importlib.resources` brings tempfile, shutil, bz2, lzma and random,
    # and `pathlib` brings `urllib.parse`; -S, since `site` may import
    # either of them, through a .pth file say
    code = ("import sys, birkhoffsym, birkhoffsym.cli; "
            "print(birkhoffsym.load_exceptional_c6().order, "
            "'importlib.resources' in sys.modules, 'pathlib' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "False", "False"]


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, Sequence\n"
                     "def f(x: Optional[int]) -> 'Sequence': return x\n")
    assert imported_names(tree).keys() - read_names(tree) == {"os"}


def definitions(tree: ast.Module):
    """(name, node) for each module-level function or class and each
    non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


def reads(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def dead_definitions(trees: dict[str, ast.Module],
                     kept: set[str]) -> list[str]:
    """module.name of every definition that no package code reads outside
    the definition's own body and that `kept` does not list."""
    total = Counter()
    for tree in trees.values():
        total += reads(tree)
    dead = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name not in kept and total[name] - reads(node)[name] <= 0:
                dead.append(f"{module}.{name}")
    return dead


def package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}


def test_no_dead_definitions():
    assert dead_definitions(package_trees(), set(KEPT_EXPORTS)) == []


def test_kept_exports_are_exported_and_read_by_no_module():
    # an entry whose name a module reads, or that __init__ no longer
    # exports, is stale
    exported = set(imported_names(ast.parse((PACKAGE / "__init__.py").read_text())))
    total = Counter()
    for tree in package_trees().values():
        total += reads(tree)
    assert set(KEPT_EXPORTS) <= exported
    assert [name for name in KEPT_EXPORTS if total[name]] == []


def test_detects_an_exported_helper_no_module_reads():
    # __init__ re-exporting a helper does not keep it; only a listing does
    trees = {"m": ast.parse("def helper(): return 1\n"
                            "def used(): return 2\n"),
             "n": ast.parse("from .m import used\nused()\n")}
    init = ast.parse("from .m import helper, used\n")
    assert set(imported_names(init)) == {"helper", "used"}
    assert dead_definitions(trees, set()) == ["m.helper"]
    assert dead_definitions(trees, {"helper"}) == []


def test_detects_a_dead_definition():
    tree = ast.parse("def used(): return 1\n"
                     "def unused(): return used()\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "class C:\n"
                     "    def __len__(self): return 0\n"
                     "    def method(self): return 0\n"
                     "    def read(self): return self.read\n"
                     "C().method\n")
    assert dead_definitions({"m": tree}, {"C"}) == [
        "m.unused", "m.recursive", "m.read"]


def function_level_imports(tree: ast.AST) -> list[int]:
    """Line of each import inside a function: a package module imported
    there hides an import cycle between package modules, and any module
    imported there escapes `unused_imports`."""
    return sorted({node.lineno for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    lines = function_level_imports(
        ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: imports inside functions on lines {lines}"


def test_detects_a_function_level_package_import():
    # a standard-library import counts as much as a package one, in a
    # method as in a module-level function
    tree = ast.parse("from .perm import closure\n"
                     "import math\n"
                     "def f():\n"
                     "    import itertools\n"
                     "    from .regular import regular_subgroups\n"
                     "    def g():\n"
                     "        from . import gamma\n"
                     "    return itertools, regular_subgroups, g\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        import math as m\n"
                     "        return m\n")
    assert function_level_imports(tree) == [4, 5, 7, 11]


def assert_statements(tree: ast.AST) -> list[int]:
    """Line of each `assert` statement: `python -O` drops them, so a check
    the package relies on must raise explicitly."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements_in_the_package(path):
    lines = assert_statements(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name}: assert statements on lines {lines}"


def test_detects_an_assert_statement():
    tree = ast.parse('def f(x):\n'
                     '    """an assert in a docstring is text"""\n'
                     '    assert x, "message"\n'
                     '    return x\n')
    assert assert_statements(tree) == [3]


def group_constructions(tree: ast.AST) -> list[int]:
    """Line of each call of `PermutationGroup`, by bare or attribute
    name."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "PermutationGroup" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_perm_builds_groups(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = group_constructions(tree)
    if path.name == "perm.py":
        assert lines
    else:
        assert not lines, f"{path.name}: a group is built on lines {lines}"


def test_detects_a_group_construction():
    # a call by either name counts; a type annotation or an isinstance
    # test builds nothing
    tree = ast.parse("from . import perm\n"
                     "from .perm import PermutationGroup\n"
                     "def f(xs) -> PermutationGroup:\n"
                     "    a = PermutationGroup(xs, ())\n"
                     "    b = perm.PermutationGroup(\n"
                     "        xs, ())\n"
                     "    return isinstance(a, perm.PermutationGroup), b\n")
    assert group_constructions(tree) == [4, 5]


# Where `perm.as_permutation` may be called, as (module, enclosing
# function): the alpha file, cycle notation and a matrix group's
# translations, where outside input becomes a permutation.
VALIDATING_FUNCTIONS = {
    ("cli", "_read_alpha"),
    ("perm", "_permutation_of"),
    ("reppoly", "MatrixGroup.element_group.translation"),
}


def validator_calls(tree: ast.AST, prefix: str = "") -> list[str]:
    """Dotted name of the function or class around each read of
    `as_permutation`, by bare or attribute name, so a call or a reference
    passed on (to `map`, say); "" at module level."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out += validator_calls(node, f"{prefix}{node.name}.")
            continue
        if (isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and "as_permutation" in (getattr(node, "id", None),
                                         getattr(node, "attr", None))):
            out.append(prefix[:-1])
        out += validator_calls(node, prefix)
    return out


def test_permutations_are_validated_only_at_the_input_boundary():
    calls = {(module, name) for module, tree in package_trees().items()
             for name in validator_calls(tree)}
    assert calls == VALIDATING_FUNCTIONS


def test_detects_a_validator_call():
    # a call or a reference by either name counts, in a nested function,
    # a method or at module level; the import reads nothing
    tree = ast.parse("from . import perm\n"
                     "from .perm import as_permutation\n"
                     "P = as_permutation([0])\n"
                     "def f(xs):\n"
                     "    def g(ys):\n"
                     "        return perm.as_permutation(ys)\n"
                     "    return g(as_permutation(xs))\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        return map(as_permutation, [])\n")
    assert sorted(validator_calls(tree)) == ["", "C.m", "f", "f.g"]


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level name of each module an absolute import anywhere in the
    tree names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def unused_oracles(trees: dict[str, ast.Module]) -> list[str]:
    """Each `*_oracle` module that no `test_*` module imports."""
    imported = set().union(*(imported_modules(tree)
                             for name, tree in trees.items()
                             if name.startswith("test_")))
    return sorted(name for name in trees
                  if name.endswith("_oracle") and name not in imported)


def test_every_oracle_is_imported_by_a_test():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in TEST_MODULES}
    assert {"hull_oracle", "law_oracle", "regular_oracle"} <= trees.keys()
    assert unused_oracles(trees) == []


def test_detects_an_oracle_no_test_imports():
    # an import by another oracle does not count
    trees = {"a_oracle": ast.parse("import b_oracle\n"),
             "b_oracle": ast.parse("X = 1\n"),
             "c_oracle": ast.parse("X = 2\n"),
             "test_m": ast.parse("def f():\n    from c_oracle import X\n"
                                 "    return X\n")}
    assert unused_oracles(trees) == ["a_oracle", "b_oracle"]


def defaulted_parameters(tree: ast.Module):
    """(qualified name, callee name, position, parameter) for each
    parameter with a default of each function, method and nested function
    in the module.  `position` counts the explicit arguments of a call
    that reach the parameter, so it is None for a keyword-only one; a
    method's receiver is not counted, and a class's `__init__` is called
    by the class name."""
    owners = {item: node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for item in node.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(fn)
        callee = owner.name if owner and fn.name == "__init__" else fn.name
        qualified = f"{owner.name}.{fn.name}" if owner else fn.name
        receiver = owner is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        for i in range(len(positional) - len(fn.args.defaults), len(positional)):
            yield (qualified, callee, i + 1 - receiver, positional[i].arg)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, callee, None, arg.arg


def unset_parameters(trees: dict[str, ast.Module]) -> list[str]:
    """module.function(parameter) for each defaulted parameter that no
    call in the trees passes, matching calls by the callee's bare or
    attribute name.  A call with *args passes every positional parameter,
    one with **kwargs every parameter."""
    passed: dict[str, tuple[int, set]] = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            count = (float("inf") if any(isinstance(a, ast.Starred)
                                         for a in call.args)
                     else len(call.args))
            keywords = {k.arg for k in call.keywords}
            most, names = passed.get(name, (0, set()))
            passed[name] = (max(most, count), names | keywords)
    unset = []
    for module, tree in trees.items():
        for qualified, callee, position, arg in defaulted_parameters(tree):
            most, names = passed.get(callee, (0, set()))
            if not (arg in names or None in names
                    or (position is not None and most >= position)):
                unset.append(f"{module}.{qualified}({arg})")
    return unset


def test_every_defaulted_parameter_is_passed_or_kept():
    # an entry no longer reported is stale
    assert sorted(unset_parameters(package_trees())) == sorted(KEPT_PARAMETERS)


def test_detects_a_parameter_no_call_passes():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                     "def g(x=0): pass\n"
                     "def h(y=0): pass\n"
                     "class C:\n"
                     "    def __init__(self, p=0, q=1): pass\n"
                     "    def m(self, r=0, s=1): pass\n"
                     "    @staticmethod\n"
                     "    def n(t=0, u=1): pass\n"
                     "f(0, 1, e=5)\n"
                     "g(*[])\n"
                     "h(**{})\n"
                     "C(0).m(1)\n"
                     "C.n(1)\n")
    assert unset_parameters({"m": tree}) == [
        "m.f(c)", "m.f(d)", "m.C.__init__(q)", "m.C.m(s)", "m.C.n(u)"]


SPANS = PACKAGE.parent.parent / "bench" / "spans.py"

# For each function RESULT_COUNTERS names: arguments of one call, and the
# counter its extractor reads off the result.  A function the package no
# longer defines, which the bench reports as absent, is called in the
# test helper that took its place.
RETIRED = {"perm.all_subgroups": group_oracle.all_subgroups}
SQUARE = IncidenceStructure(4, [{0, 1}, {1, 2}, {2, 3}, {3, 0}])
COUNTER_CALLS = {
    "hull.facet_enumeration": ([[(0, 0), (1, 0), (1, 1), (0, 1)]], 4),
    "combiso.comb_automorphisms": ([SQUARE], 8),
    "combiso.comb_equivalent": ([SQUARE, SQUARE], 1),
    "perm.closure": ([named_group("s3").generators], 6),
    "perm.all_subgroups": ([named_group("s3")], 6),
    "reppoly.matrix_closure": ([[RationalMatrix(2, 2, [0, -1, 1, 0], 1)]], 4),
}


def test_bench_result_counters_read_real_results():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.RESULT_COUNTERS.keys() == COUNTER_CALLS.keys()
    for name, (_, extract) in spans.RESULT_COUNTERS.items():
        layer, function = name.split(".")
        args, want = COUNTER_CALLS[name]
        module = importlib.import_module(f"birkhoffsym.{layer}")
        assert hasattr(module, function) != (name in RETIRED), name
        call = getattr(module, function, RETIRED.get(name))
        assert extract(call(*args)) == want, name
