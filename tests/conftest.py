import os
import shutil
import signal
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(__file__))

TEST_SECONDS = 60  # about 10x the slowest test


class TimeLimitExceeded(BaseException):
    """Raised into a test that runs past TEST_SECONDS.  A BaseException, so
    that neither an ``except Exception`` in the code under test nor
    hypothesis' shrinker catches it and keeps the runaway going."""


def pytest_configure(config):
    """Hypothesis caches the constants it reads from local source files in
    its storage directory (./.hypothesis by default), even with no example
    database; keep that cache out of the working tree for the session."""
    from hypothesis.configuration import set_hypothesis_home_dir

    home = tempfile.mkdtemp(prefix="ripsaw-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(call):
    """Unlink the traceback entries an overrun can leave without a line number
    (an instruction that has none was interrupted), which pytest cannot render."""
    if call.excinfo is not None and call.excinfo.errisinstance(TimeLimitExceeded):
        tb = call.excinfo.tb
        while tb.tb_next is not None:
            if tb.tb_next.tb_lineno is None:
                tb.tb_next = tb.tb_next.tb_next
            else:
                tb = tb.tb_next


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_SECONDS instead of stalling the suite."""
    def overrun(_signum, _frame):
        raise TimeLimitExceeded(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
