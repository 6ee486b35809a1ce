"""Interrupt edge cases of the runtime's checkpoint machinery.

Two boundaries the migration protocol must get exactly right:

1. An interrupt that lands *before any byte is processed* (during the
   kernel invocation overhead, or before the CPU slot is granted) must
   checkpoint at the prior progress mark exactly — resumed work is
   never forgotten, fresh work is never invented.
2. The checkpoint quantum (``CHECKPOINT_QUANTUM`` bytes) must never
   tear a dtype item, including on a *resumed* run (``already > 0``):
   progress only ever moves forward and only in whole-item steps.
"""

import numpy as np
import pytest

from repro.core.estimator import AlwaysOffloadEstimator
from repro.core.runtime import RuntimeConfig
from repro.kernels.base import KernelCheckpoint
from repro.kernels.registry import default_registry
from repro.pvfs.requests import IOKind

from tests.core.test_runtime_asc import MB, build_stack, make_asc


def _issue_resumed(client, fh, size, already, records=()):
    """One ACTIVE request carrying a prior checkpoint of ``already`` bytes."""
    [request] = client.build_requests(fh, 0, size, IOKind.ACTIVE, "sum", None)
    return client.reissue(
        request,
        resume_from=KernelCheckpoint(
            kernel="sum", bytes_done=already, records=records
        ),
    )


def _interrupt_at(env, runtime, request, at, cause="policy-demotion"):
    def controller():
        if at > 0:
            yield env.timeout(at)
        else:
            yield env.timeout(0)  # after same-time submit/dispatch
        runtime.running[request.rid].process.interrupt(cause)

    env.process(controller())


class TestInterruptBeforeFirstByte:
    def test_fresh_kernel_checkpoints_at_zero(self, env):
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator,
            RuntimeConfig(invocation_overhead=0.1),
        )
        asc, _ = make_asc(env, topo, server, mds)
        client = asc.pvfs
        fh = mds.open("/f0")
        [request] = client.build_requests(
            fh, 0, 8 * MB, IOKind.ACTIVE, "sum", None
        )
        _interrupt_at(env, runtime, request, at=0.05)  # mid-overhead

        def app():
            client.submit(request)
            reply = yield request.reply
            return reply

        reply = env.run(until=env.process(app()))
        assert not reply.completed
        assert reply.checkpoint.bytes_done == 0
        assert reply.offset == 0
        assert reply.remaining == 8 * MB
        assert runtime.stats["interrupted"] == 1

    def test_resumed_kernel_keeps_prior_mark_exactly(self, env):
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator,
            RuntimeConfig(invocation_overhead=0.1),
        )
        asc, _ = make_asc(env, topo, server, mds)
        client = asc.pvfs
        already = 1 * MB
        request = _issue_resumed(client, mds.open("/f0"), 8 * MB, already)
        _interrupt_at(env, runtime, request, at=0.05)

        def app():
            client.submit(request)
            reply = yield request.reply
            return reply

        reply = env.run(until=env.process(app()))
        # No byte was processed, so the new checkpoint IS the old mark.
        assert reply.checkpoint.bytes_done == already
        assert reply.offset == already
        assert reply.remaining == 8 * MB - already
        assert reply.bytes_done == already


class TestCheckpointQuantum:
    def test_progress_never_regresses_below_prior_mark(self, env):
        """Quantisation rounds down — but never below ``already``."""
        topo, mds, server, runtime = build_stack(env, AlwaysOffloadEstimator)
        asc, _ = make_asc(env, topo, server, mds)
        client = asc.pvfs
        # A prior mark deliberately off the quantum grid: rounding the
        # tiny new progress down must clamp to the mark, not regress.
        already = 1 * MB + 4
        request = _issue_resumed(client, mds.open("/f0"), 8 * MB, already)
        speed = default_registry.get("sum").rate  # storage core_speed = 1
        _interrupt_at(env, runtime, request, at=2.0 / speed)  # ~2 bytes in

        def app():
            client.submit(request)
            reply = yield request.reply
            return reply

        reply = env.run(until=env.process(app()))
        assert reply.checkpoint.bytes_done == already

    def test_no_item_torn_when_resuming_real_execution(self, env):
        """Interrupt a resumed *executing* kernel at a raw byte count
        that is not item-aligned: the checkpoint must snap to a whole
        float64 boundary at or above the prior mark, and finishing from
        it must reproduce the fault-free result exactly."""
        topo, mds, server, runtime = build_stack(
            env, AlwaysOffloadEstimator,
            RuntimeConfig(execute_kernels=True),
        )
        asc, _ = make_asc(env, topo, server, mds)
        client = asc.pvfs
        kernel = default_registry.get("sum")
        file = mds.lookup("/f0")
        itemsize = np.dtype(kernel.dtype).itemsize

        # Build a genuine prior checkpoint: sum of the first 1 MB.
        already = 1 * MB
        state = kernel.init_state(None)
        kernel.process_chunk(
            state, file.read_bytes_as_array(0, already, dtype=kernel.dtype)
        )
        prior = kernel.checkpoint(state, already)
        request = _issue_resumed(
            client, mds.open("/f0"), 8 * MB, already, records=prior.records
        )
        # Interrupt ~37 bytes (4.6 items) past the mark.
        _interrupt_at(env, runtime, request, at=37.0 / kernel.rate)

        def app():
            client.submit(request)
            reply = yield request.reply
            return reply

        reply = env.run(until=env.process(app()))
        done = reply.checkpoint.bytes_done
        assert done % itemsize == 0
        assert already <= done < 8 * MB

        # Finish client-side from the checkpoint: byte-exact total.
        state = kernel.resume(reply.checkpoint)
        kernel.process_chunk(
            state, file.read_bytes_as_array(done, 8 * MB - done,
                                            dtype=kernel.dtype),
        )
        expected = float(file.read_bytes_as_array(0, 8 * MB).sum())
        assert kernel.finalize(state) == pytest.approx(expected, rel=1e-12)
