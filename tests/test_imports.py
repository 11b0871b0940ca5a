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
