import os

import pytest

from moonmod.chartab import bundled_table
from moonmod.rademacher import RademacherEngine
from moonmod.store import bundled_cache

REPO_CACHE = os.path.join(os.path.dirname(__file__), "..", "src", "moonmod", "data",
                          "m24_coeffs.ldjson")


@pytest.fixture(scope="session")
def m24_table():
    return bundled_table("m24")


@pytest.fixture(scope="session")
def a5_table():
    return bundled_table("a5")


@pytest.fixture(scope="session")
def warm_cache():
    """Precomputed coefficient store: packaged copy, else the repo data file."""
    cache = bundled_cache()
    if len(cache) == 0 and os.path.exists(REPO_CACHE):
        with open(REPO_CACHE, "r", encoding="utf-8") as fh:
            cache.seed(fh.read().splitlines())
    return cache


@pytest.fixture(scope="session")
def engine(m24_table, warm_cache):
    return RademacherEngine(m24_table, cache=warm_cache)
