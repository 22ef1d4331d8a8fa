import pytest

from fpcoh import complexes


@pytest.fixture(autouse=True)
def _cold_hook_smith_cache():
    # each test starts without the Z sides of an earlier one, so a test that
    # patches smith_invariants or build_complex sees them called
    complexes._hook_smith.cache_clear()
