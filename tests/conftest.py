import pytest

from kreinrel import checks


@pytest.fixture(autouse=True)
def _empty_draw_memo():
    """Each test starts with no stored instance draws, so that no count
    depends on which tests ran before it."""
    checks._DRAWS.clear()
    yield
    checks._DRAWS.clear()
