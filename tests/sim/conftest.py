"""Sim-layer fixtures.

The ``env`` fixture here overrides the plain global one with a single
``heap`` param, so every engine/event/process/resource/store test in
``tests/sim`` names the event queue it ran against in its test id.
"""

import pytest

from repro.sim import Environment


@pytest.fixture(params=["heap"])
def env():
    """A fresh simulation environment on the binary-heap event queue."""
    return Environment()
