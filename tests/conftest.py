import os

import pytest

from polyaprofile.acceptance import AcceptanceContext
from polyaprofile.constants import compute_constants
from polyaprofile.enumeration import count_trees

CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")
# The CLI's count cache, for CliRunner calls and CLI subprocesses alike: a
# stale file in the user's cache must not change what the tests see.
os.environ["POLYAPROFILE_CACHE"] = CACHE_DIR


@pytest.fixture(scope="session")
def cache_dir():
    return CACHE_DIR


@pytest.fixture(scope="session")
def constants_400():
    return compute_constants(400, degrees=(1, 2, 3))


@pytest.fixture(scope="session")
def table_400():
    return count_trees(400, cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def acceptance_ctx():
    """Full-size acceptance context shared by the criterion tests.

    The Monte Carlo criteria run on every available CPU (up to 16): seeded
    results do not depend on the worker count.
    """
    return AcceptanceContext(quick=False, cache_dir=CACHE_DIR,
                             threads=min(len(os.sched_getaffinity(0)), 16))
