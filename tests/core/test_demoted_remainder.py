"""A demoted request's remainder against TS and paper Eq. 3.

The paper charges the remaining data of a demoted request as one normal
read: y_i = g(d_i) (Eq. 6) and g(D) (Eq. 3).  Where DOSAS demotes every
request — jitter off, one storage node, simultaneous arrivals — its
per-request latencies must therefore equal TS's exactly, and the i-th
request to finish takes (i+1)·g(D) + D/C_client: the reads serialise
on the storage node's link, then each client computes its own D.

Under a retry policy the remainder is read one recovered attempt per
stripe instead, and those attempts are the per-stripe pieces the
client read before requests carried coalesced runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import discfarm_config
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme
from repro.core.asc import remainder_reads
from repro.core.model import CostModel
from repro.kernels.costs import make_paper_model
from repro.pvfs import StripeLayout
from repro.pvfs.filehandle import FileHandle
from repro.pvfs.requests import IOReply, slice_extents

#: (requests, bytes per request) where DOSAS demotes every request.
ALL_DEMOTED = [(8, 1024 * MB), (64, 128 * MB), (4, 128 * MB)]


def _paper_model() -> CostModel:
    config = discfarm_config()
    kernel = make_paper_model("gaussian2d")
    return CostModel(
        kernel=kernel,
        storage_capability=kernel.rate,
        compute_capability=kernel.rate * config.compute_spec.core_speed,
        bandwidth=config.network_bandwidth,
    )


@pytest.mark.parametrize("n, size", ALL_DEMOTED)
def test_all_demoted_dosas_equals_ts_and_the_analytic_model(n, size):
    spec = WorkloadSpec(kernel="gaussian2d", n_requests=n, request_bytes=size,
                        n_storage=1, jitter=False)
    ts = run_scheme(Scheme.TS, spec)
    dosas = run_scheme(Scheme.DOSAS, spec)
    assert dosas.demoted == n and dosas.served_active == 0
    assert dosas.per_request_latencies == ts.per_request_latencies
    model = _paper_model()
    oracle = [(i + 1) * model.g(size) + model.f_compute(size) for i in range(n)]
    assert dosas.per_request_latencies == pytest.approx(oracle, rel=1e-12)


def _reply(layout, extents, done, remaining):
    fh = FileHandle(handle_id=1, name="/f", size=1 << 40, layout=layout)
    return IOReply(rid=1, completed=False, fh=fh, extents=tuple(extents),
                   bytes_done=done, remaining=remaining)


@given(
    stripe_size=st.integers(min_value=1, max_value=1 << 16),
    n_servers=st.integers(min_value=1, max_value=4),
    offset=st.integers(min_value=0, max_value=1 << 30),
    stripes_covered=st.integers(min_value=0, max_value=40),
    tail=st.integers(min_value=0, max_value=1 << 16),
    done_share=st.floats(min_value=0.0, max_value=1.0),
    remaining_share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_retry_attempts_are_the_per_stripe_pieces(
    stripe_size, n_servers, offset, stripes_covered, tail, done_share,
    remaining_share,
):
    layout = StripeLayout(stripe_size, n_servers)
    size = min(stripes_covered * stripe_size + tail, 60 * stripe_size)
    runs = layout.extents_by_server(offset, size)
    for server, server_runs in runs.items():
        per_stripe = [(p.logical_offset, p.length)
                      for p in layout.map_extent(offset, size)
                      if p.server == server]
        total = sum(length for _off, length in per_stripe)
        done = int(total * done_share)
        remaining = int((total - done) * remaining_share)
        reply = _reply(layout, server_runs, done, remaining)
        assert remainder_reads(reply, per_stripe=True) == slice_extents(
            tuple(per_stripe), done, remaining
        )


@given(
    stripe_size=st.integers(min_value=1, max_value=1 << 16),
    offset=st.integers(min_value=0, max_value=1 << 30),
    stripes_covered=st.integers(min_value=0, max_value=300),
    tail=st.integers(min_value=0, max_value=1 << 16),
    done_share=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_width_one_remainder_is_one_read(stripe_size, offset, stripes_covered,
                                         tail, done_share):
    # Bounded in stripes, so a per-stripe regression fails, not hangs.
    size = min(stripes_covered * stripe_size + tail, 300 * stripe_size)
    layout = StripeLayout(stripe_size, 1)
    extents = layout.extents_by_server(offset, size).get(0, [])
    assert len(extents) <= 1
    done = int(size * done_share)
    reply = _reply(layout, extents, done, size - done)
    expected = [(offset + done, size - done)] if size > done else []
    assert remainder_reads(reply, per_stripe=False) == expected
