import os

import pytest
from hypothesis import HealthCheck, settings

from gradedpoisson import scalars

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=int(os.environ.get("GP_MAX_EXAMPLES", "20")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def _clear_scalar_memos():
    """Tests that call the algebra directly would otherwise leave their
    products and derivatives in the memos for the rest of the test run."""
    yield
    scalars.clear_memos()
