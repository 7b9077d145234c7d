import pytest
from hypothesis import settings

from bicomplex import bct

# The .bct reader and writer oracles leave their example count to the active
# profile: 100, hypothesis's default, in tier-1, and ten times that in CI's
# text-oracle job (pytest --hypothesis-profile=text-oracle).
settings.register_profile("text-oracle", max_examples=10 * settings.default.max_examples)

pytest_plugins = ["pytester"]


@pytest.fixture
def cold_cache():
    """An empty ``bct.load`` cache before and after the test."""
    bct._parse_bytes.cache_clear()
    yield
    bct._parse_bytes.cache_clear()
