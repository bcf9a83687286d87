import pytest

from krspectra import pipeline, promotion


@pytest.fixture(autouse=True)
def fresh_kr_crystals_and_reps():
    """Each test starts with no KR crystal and no KR factor rep built, as in a
    fresh process: `promotion.build_kr` and `pipeline.kr_rep` keep every
    crystal and rep they build."""
    promotion.build_kr.cache_clear()
    pipeline.kr_rep.cache_clear()
