import shutil
import sys
import tempfile
from pathlib import Path

import pytest

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests that need it fail to collect on their own
    settings = None

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

if settings is not None:
    # no example database, so the tests write nothing into the source tree
    settings.register_profile("no-database", database=None)
    settings.load_profile("no-database")


def pytest_configure(config):
    """Hypothesis's other caches (it writes some while collecting) go to a
    temporary directory instead of .hypothesis/ in the working directory."""
    if settings is not None:
        home = tempfile.mkdtemp(prefix="hypothesis-")
        config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
        set_hypothesis_home_dir(home)


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return ROOT / "fixtures"
