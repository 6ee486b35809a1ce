"""The simulator against the paper's analytic model where that model is exact.

On ``WorkloadSpec`` defaults — one storage node, jitter off,
simultaneous arrivals, no latency or invocation overhead — a batch of
n equal requests of d bytes has a closed-form makespan per scheme:

- TS is paper Eq. 2-3, ``CostModel.t_all_normal``: every read
  serialises on the storage node's link, then the last client computes
  its own d.
- AS is paper Eq. 1, ``CostModel.t_all_active``, less (n-1)·g(h(d)).
  Eq. 1 charges all n result transfers after the kernels, but the
  simulator sends result i over the idle link while kernel i+1 runs,
  so only the last transfer is on the critical path.
- DOSAS equals the AS expression where it offloads every request and
  the TS one where it demotes every request.
"""

from hypothesis import event, given, settings, strategies as st

from repro.cluster import discfarm_config
from repro.cluster.config import MB
from repro.core import Scheme, WorkloadSpec, run_scheme
from repro.core.model import CostModel
from repro.core.schemes import cost_models_from_registry
from repro.kernels.registry import default_registry

KERNELS = ("gaussian2d", "sum", "minmax", "sobel", "histogram")
REL = 1e-12


def paper_model(kernel: str) -> CostModel:
    config = discfarm_config()
    cost = cost_models_from_registry(default_registry)[kernel]
    return CostModel(
        kernel=cost,
        storage_capability=cost.rate * config.storage_spec.core_speed,
        compute_capability=cost.rate * config.compute_spec.core_speed,
        bandwidth=config.network_bandwidth,
    )


def close(simulated: float, expected: float) -> bool:
    return abs(simulated - expected) <= REL * expected


@given(
    kernel=st.sampled_from(KERNELS),
    n=st.integers(min_value=1, max_value=64),
    size=st.integers(min_value=MB, max_value=1024 * MB),
)
@settings(max_examples=100, deadline=None)
def test_makespans_match_the_analytic_model(kernel, n, size):
    spec = WorkloadSpec(kernel=kernel, n_requests=n, request_bytes=size)
    model = paper_model(kernel)
    sizes = [float(size)] * n
    t_ts = model.t_all_normal(sizes)
    t_as = model.t_all_active(sizes) - (n - 1) * model.g(model.h(size))

    ts = run_scheme(Scheme.TS, spec)
    assert close(ts.makespan, t_ts)
    as_ = run_scheme(Scheme.AS, spec)
    assert close(as_.makespan, t_as)

    dosas = run_scheme(Scheme.DOSAS, spec)
    if dosas.served_active == n and dosas.demoted == 0:
        event("DOSAS offloads every request")
        assert close(dosas.makespan, t_as)
    elif dosas.demoted == n and dosas.interrupted == 0:
        event("DOSAS demotes every request")
        assert close(dosas.makespan, t_ts)
    else:
        event("DOSAS splits the batch")
