import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))


def pytest_configure(config):
    """Hypothesis caches the constants it reads from local source files in
    its storage directory (./.hypothesis by default), even with no example
    database; keep that cache out of the working tree for the session."""
    from hypothesis.configuration import set_hypothesis_home_dir

    home = tempfile.mkdtemp(prefix="ripsaw-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
