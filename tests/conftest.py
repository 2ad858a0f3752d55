import pytest
from hypothesis import HealthCheck, settings

from anharmonic import spectral

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _cold_connection_memo():
    """Each test starts without the connection data of an earlier test's energy,
    so what it patches or counts sees its own transports."""
    spectral._sectors.cache_clear()
