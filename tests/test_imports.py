import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ripsaw


GEN_UNUSED = ["dataclasses", "hashlib", "inspect", "json", "numpy", "ripsaw.covertree",
              "ripsaw.metric", "ripsaw.sparsify", "ripsaw.persistence",
              "ripsaw.diagram", "ripsaw.svgplot"]
TREE_UNUSED = ["ripsaw.sparsify", "ripsaw.persistence", "ripsaw.diagram", "ripsaw.svgplot"]


def _run_python(code):
    src = str(Path(ripsaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", GEN_UNUSED)
def test_cli_import_leaves_module_unloaded(module):
    """`ripsaw gen` pays for neither numpy, dataclasses (nor the inspect it
    loads), hashlib, json, the tree nor any later stage."""
    code = f"import sys, ripsaw.cli; sys.exit({module!r} in sys.modules)"
    assert _run_python(code).returncode == 0


def test_gen_run_leaves_modules_unloaded(tmp_path):
    """Each dataset, generated in a fresh interpreter."""
    out = tmp_path / "gen.csv"
    for dataset in ("circle", "solenoid", "cloud"):
        code = (f"import sys\nfrom ripsaw import cli\n"
                f"assert cli.main(['gen', {dataset!r}, '--n', '50', '--out', {str(out)!r}]) == 0\n"
                f"print(sorted(set({GEN_UNUSED!r}) & set(sys.modules)))")
        run = _run_python(code)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["wrote " + str(out) + " (50 points)", "[]"], dataset


def test_cli_import_loads_no_stage_module(cli_modules):
    assert sorted(m for m in cli_modules if m.startswith("ripsaw")) == [
        "ripsaw", "ripsaw.cli", "ripsaw.errors", "ripsaw.generators"]


def test_tree_run_leaves_later_stages_unloaded(tmp_path):
    csv, tree = tmp_path / "sol.csv", tmp_path / "sol.tree"
    code = (f"import sys\nfrom ripsaw import cli\n"
            f"assert cli.main(['gen', 'solenoid', '--n', '50', '--out', {str(csv)!r}]) == 0\n"
            f"assert cli.main(['tree', '--input', {str(csv)!r}, '--out', {str(tree)!r}]) == 0\n"
            f"print(sorted(set({TREE_UNUSED!r}) & set(sys.modules)))")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("load", [
    "import ripsaw.persistence",
    "from ripsaw.sparsify import read_sparse",
    "importlib.import_module('ripsaw.sparsify')",
], ids=["via-persistence", "from-import", "import-module"])
def test_loading_the_sparsify_module_keeps_the_function(load):
    """The submodule ``sparsify``, however it is loaded first, never shadows
    the public function of the same name on the package."""
    code = (f"import importlib, sys, types\nimport ripsaw\n{load}\n"
            "assert isinstance(ripsaw.sparsify, types.FunctionType), ripsaw.sparsify\n"
            "assert sys.modules['ripsaw.sparsify'].sparsify is ripsaw.sparsify")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr


def test_module_algebra_names_resolve_lazily():
    """Every public name is its home module's, however late it is first used."""
    for module, names in ripsaw._EXPORTS.items():
        home = importlib.import_module(f"ripsaw.{module}")
        for name in names:
            assert getattr(ripsaw, name) is getattr(home, name), name
    assert isinstance(ripsaw.sparsify, types.FunctionType)
    assert len(ripsaw.__all__) == 35
    namespace = {}
    exec("from ripsaw import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ripsaw.__all__
    assert set(ripsaw.__all__) <= set(dir(ripsaw))
    with pytest.raises(AttributeError):
        ripsaw.no_such_name


def test_package_keeps_no_test_only_counter():
    """Per-dimension counts and a text dump of a diagram are test helpers,
    not package code, and the diagram's JSON lives only in ``dump_diagram``
    and ``load_diagram``."""
    assert not hasattr(importlib.import_module("ripsaw.persistence"), "count_simplices")
    for name in ("to_text", "to_json_dict", "from_json_dict"):
        assert not hasattr(ripsaw.PersistenceDiagram, name), name


def _numpy_imports(source):
    """Lines of the statements in ``source`` that import numpy or one of its
    submodules."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any(a.name.split(".")[0] == "numpy" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "numpy")


def test_numpy_import_check_flags_both_forms():
    source = ("import numpy as np\nfrom numpy.linalg import norm\nimport json, numpy.random\n"
              "import numpyish\nfrom . import numpy\nfrom .numpy import x\n")
    assert _numpy_imports(source) == [1, 2, 3]


def test_package_imports_no_numpy():
    """numpy is a test dependency only: no module of the package imports it,
    and the explicit-module algebra that needs it is a test oracle, not a
    submodule."""
    found = {p.name: _numpy_imports(p.read_text())
             for p in Path(ripsaw.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ripsaw.modules")


def _unused_imports(source):
    """Names an import in ``source`` binds that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_check_flags_a_stray_import():
    assert _unused_imports("import json\nimport math\nx = math.pi\n") == [(1, "json")]
    assert _unused_imports("from . import a as b, c\nc.f(b)\n") == []


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py") if p.name != "__init__.py"))
def test_module_binds_no_unused_import(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _unused_imports(source) == []


def _imports_in_functions(source):
    """Lines of the import statements inside a function body of ``source``."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_function_import_check_flags_a_deferred_import():
    source = "import a\ndef f():\n    import b\n    def g():\n        from c import d\n"
    assert _imports_in_functions(source) == [3, 5]
    assert _imports_in_functions("import a\nclass C:\n    from b import c\n") == []


@pytest.fixture(scope="module")
def cli_modules():
    """The modules ``import ripsaw.cli`` loads, read in a fresh interpreter."""
    run = _run_python("import sys, ripsaw.cli; print(*sorted(sys.modules))")
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_function_imports_only_where_cli_loads(path, cli_modules):
    """Importing inside a function defers a cost for `ripsaw gen` only in a
    module that `import ripsaw.cli` loads; every other module is loaded by
    the stage that needs it, and imports at module level."""
    module = "ripsaw" if path == "__init__.py" else f"ripsaw.{path[:-3]}"
    if module not in cli_modules:
        source = (Path(ripsaw.__file__).parent / path).read_text()
        assert _imports_in_functions(source) == []


def _orphaned_private_defs(source):
    """Private top-level functions and classes (``_name``, not dunders) that
    nothing in ``source`` reads."""
    tree = ast.parse(source)
    defined = {node.name: node.lineno for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items() if name not in read)


def test_orphan_check_flags_an_unread_private_helper():
    assert _orphaned_private_defs("def _used(): pass\nclass _Stray: x = _used()\n") == \
        [(2, "_Stray")]
    assert _orphaned_private_defs("def __getattr__(name): pass\ndef public(): pass\n") == []


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_module_reads_every_private_helper(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _orphaned_private_defs(source) == []


def _unused_parameters(source):
    """(line, function, parameter) for each parameter of a function or lambda
    in ``source`` that its body never reads; ``self``, ``cls`` and names
    that start with ``_`` are skipped."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [(node.lineno, getattr(node, "name", "<lambda>"), x.arg) for x in params
                   if x.arg not in read and x.arg not in ("self", "cls")
                   and not x.arg.startswith("_")]
    return sorted(unused)


def test_unused_parameter_check_flags_an_unread_parameter():
    assert _unused_parameters("def f(self, a, b, _c): return a\ng = lambda x, *y: 1\n") == \
        [(1, "f", "b"), (2, "<lambda>", "x"), (2, "<lambda>", "y")]
    assert _unused_parameters("def f(a, **k):\n    return lambda: (a, k)\n") == []


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_module_reads_every_parameter(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _unused_parameters(source) == []


@pytest.mark.parametrize("path", sorted(p.name for p in Path(__file__).parent.glob("*.py")))
def test_test_file_binds_no_unused_import(path):
    source = (Path(__file__).parent / path).read_text()
    assert _unused_imports(source) == []


def _self_calls(source):
    """(line, function) for each call in ``source`` by a function to itself,
    by name or as ``self.<name>``/``cls.<name>``: recursion whose depth grows
    with the input ends in RecursionError."""
    calls = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                    isinstance(callee, ast.Attribute) and callee.attr == func.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")):
                calls.append((node.lineno, func.name))
    return sorted(calls)


def test_self_call_check_flags_recursion():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "class C:\n    def g(self):\n        return self.g()\n"
              "def h(x):\n    return g(x) + x.h()\n")
    assert _self_calls(source) == [(2, "f"), (5, "g")]


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_module_has_no_recursive_function(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _self_calls(source) == []


def _unguarded_reads(source):
    """Lines of the ``open()`` calls in ``source`` that neither pass a write
    mode nor sit in the body of a ``try`` that catches ``ValueError`` or
    ``UnicodeDecodeError``: such a reader meets a file that is not UTF-8
    with a traceback instead of an input error.  The guarded ones are the
    shared line reader ``errors.lines`` and the JSON reads of
    ``read_sparse``'s sidecar and ``load_diagram``."""
    tree = ast.parse(source)
    guarded = {id(node) for block in ast.walk(tree) if isinstance(block, ast.Try)
               and any(isinstance(n, ast.Name) and n.id in ("ValueError", "UnicodeDecodeError")
                       for h in block.handlers if h.type for n in ast.walk(h.type))
               for stmt in block.body for node in ast.walk(stmt)}
    reads = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open") or id(node) in guarded:
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax")):
            reads.append(node.lineno)
    return sorted(reads)


def test_unguarded_read_check_flags_a_bare_reader():
    source = ("def load(p):\n    with open(p) as fh:\n        return fh.read()\n"
              "def raw(p):\n    return open(p, 'rb')\n"
              "def save(p):\n    open(p, 'w'); open(p, mode='a'); open(p, 'xb')\n"
              "def parse(p):\n    try:\n        return open(p).read()\n"
              "    except (OSError, ValueError):\n        pass\n"
              "def lines(p):\n    try:\n        yield from open(p, encoding='utf-8')\n"
              "    except UnicodeDecodeError:\n        pass\n"
              "def careless(p):\n    try:\n        return open(p).read()\n"
              "    except OSError:\n        pass\n")
    assert _unguarded_reads(source) == [2, 5, 20]


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_module_reads_text_only_through_a_guarded_open(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _unguarded_reads(source) == []


def _unfrozen_checked_dataclasses(source):
    """(line, class) for each ``@dataclass`` class in ``source`` whose body
    defines ``__post_init__`` but whose decorator does not pass
    ``frozen=True``: a value checked where it is built could change after."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                for f in node.body)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            func = call.func if call else deco
            if isinstance(func, ast.Name) and func.id == "dataclass" and not (call and any(
                    k.arg == "frozen" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in call.keywords)):
                found.append((node.lineno, node.name))
    return sorted(found)


def test_frozen_check_flags_an_unfrozen_checked_dataclass():
    source = ("@dataclass\nclass A:\n    def __post_init__(self): pass\n"
              "@dataclass(order=True)\nclass B:\n    def __post_init__(self): pass\n"
              "@dataclass(frozen=True)\nclass C:\n    def __post_init__(self): pass\n"
              "@dataclass\nclass D:\n    x: int\n")
    assert _unfrozen_checked_dataclasses(source) == [(2, "A"), (5, "B")]


@pytest.mark.parametrize("path", sorted(
    p.name for p in Path(ripsaw.__file__).parent.glob("*.py")))
def test_checked_dataclass_is_frozen(path):
    source = (Path(ripsaw.__file__).parent / path).read_text()
    assert _unfrozen_checked_dataclasses(source) == []
