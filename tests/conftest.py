import pytest

from xtl import qkz


@pytest.fixture(autouse=True)
def _empty_psi_memo():
    """Empty psi_vector's memo before each test, so that a fault one test
    plants below it cannot reach another test through a cached vector."""
    qkz._psi_amps.cache_clear()
