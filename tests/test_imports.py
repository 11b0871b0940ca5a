import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ripsaw


GEN_UNUSED = ["numpy", "ripsaw.covertree", "ripsaw.modules", "ripsaw.persistence",
              "ripsaw.diagram", "ripsaw.svgplot"]


def _run_python(code):
    src = str(Path(ripsaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("module", GEN_UNUSED)
def test_cli_import_leaves_module_unloaded(module):
    """`ripsaw gen` pays for neither numpy, the tree nor the stages after sparsify."""
    code = f"import sys, ripsaw.cli; sys.exit({module!r} in sys.modules)"
    assert _run_python(code).returncode == 0


def test_gen_run_leaves_modules_unloaded(tmp_path):
    out = tmp_path / "sol.csv"
    code = (f"import sys\nfrom ripsaw import cli\n"
            f"assert cli.main(['gen', 'solenoid', '--n', '50', '--out', {str(out)!r}]) == 0\n"
            f"print(sorted(set({GEN_UNUSED!r}) & set(sys.modules)))")
    run = _run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["wrote " + str(out) + " (50 points)", "[]"]


def test_module_algebra_names_resolve_lazily():
    """Every public name, the numpy-backed ones too, is its home module's."""
    for module, names in ripsaw._EXPORTS.items():
        home = importlib.import_module(f"ripsaw.{module}")
        for name in names:
            assert getattr(ripsaw, name) is getattr(home, name), name
    assert isinstance(ripsaw.sparsify, types.FunctionType)
    assert len(ripsaw.__all__) == 43
    namespace = {}
    exec("from ripsaw import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ripsaw.__all__
    assert set(ripsaw.__all__) <= set(dir(ripsaw))
    with pytest.raises(AttributeError):
        ripsaw.no_such_name


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


@pytest.mark.parametrize("path", sorted(p.name for p in Path(__file__).parent.glob("*.py")))
def test_test_file_binds_no_unused_import(path):
    source = (Path(__file__).parent / path).read_text()
    assert _unused_imports(source) == []
