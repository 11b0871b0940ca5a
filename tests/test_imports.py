import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ripsaw


def test_cli_import_leaves_numpy_unloaded():
    """numpy costs the CLI start-up time and memory and is never used there."""
    src = str(Path(ripsaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ripsaw.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_module_algebra_names_resolve_lazily():
    from ripsaw import modules
    assert ripsaw.normal_form is modules.normal_form
    assert ripsaw.ExplicitModule is modules.ExplicitModule
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


@pytest.mark.parametrize("path", sorted(p.name for p in Path(__file__).parent.glob("*.py")))
def test_test_file_binds_no_unused_import(path):
    source = (Path(__file__).parent / path).read_text()
    assert _unused_imports(source) == []
