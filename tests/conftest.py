import pytest

from krspectra import promotion


@pytest.fixture(autouse=True)
def fresh_kr_crystals():
    """Each test starts with no KR crystal built, as in a fresh process:
    `promotion.build_kr` keeps every crystal it builds."""
    promotion.build_kr.cache_clear()
