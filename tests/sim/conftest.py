"""Sim-layer fixtures.

The ``env`` fixture is parametrized over both event schedulers here
(overriding the plain global one), so every engine/event/process/
resource/store test in ``tests/sim`` runs twice — once against the
calendar scheduler, once against the reference heap.  Any behavioral
divergence between the two fails the exact test that observes it.
"""

import pytest

from repro.sim import Environment


@pytest.fixture(params=["calendar", "heap"])
def env(request):
    """A fresh simulation environment, once per scheduler."""
    return Environment(scheduler=request.param)
