import pytest

from bicomplex import bct


@pytest.fixture
def cold_cache():
    """An empty ``bct.load`` cache before and after the test."""
    bct._parse_bytes.cache_clear()
    yield
    bct._parse_bytes.cache_clear()
