import os
import subprocess
import sys

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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(*args, timeout):
    """Run a fresh interpreter on the package sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


@pytest.fixture(autouse=True)
def _clear_scalar_memos():
    """Tests that call the algebra directly would otherwise leave their
    products and derivatives in the memos for the rest of the test run."""
    yield
    scalars.clear_memos()
