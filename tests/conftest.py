import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import qutrit_pingpong

settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture
def package_env() -> dict[str, str]:
    """The environment of a child process that must import the same package as the tests, installed or not."""
    src = str(Path(qutrit_pingpong.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
