"""Cluster configuration objects.

All data sizes are bytes, rates bytes/second, times seconds.  The
constants ``KB``/``MB``/``GB`` follow the paper's (binary) usage:
"each I/O requesting 128MB, 256MB, 512MB and 1GB data".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

KB: int = 1024
MB: int = 1024 * 1024
GB: int = 1024 * 1024 * 1024

#: Measured bandwidth of Discfarm's Gigabit Ethernet (paper Sec. IV-A).
DISCFARM_BANDWIDTH: float = 118 * MB

#: Observed bandwidth variation range, paper Sec. IV-B.2: "the network
#: bandwidth is not always fixed in practice and ranged from 111MB/s to
#: 120MB/s".
DISCFARM_BANDWIDTH_MIN: float = 111 * MB
DISCFARM_BANDWIDTH_MAX: float = 120 * MB


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node.

    Parameters
    ----------
    cores:
        Number of CPU cores available to processing kernels.
    core_speed:
        Relative per-core speed multiplier applied to every kernel's
        calibrated processing rate.  1.0 means the paper's PowerEdge
        R415 core ("the storage node and the compute node have the same
        processing capability in our evaluations").
    """

    cores: int = 2
    core_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"cores must be positive, got {self.cores}")
        if self.core_speed <= 0:
            raise ValueError(f"core_speed must be positive, got {self.core_speed}")


@dataclass(frozen=True)
class ClusterConfig:
    """A complete machine description for one simulation.

    Parameters
    ----------
    n_compute, n_storage:
        Node counts.  The paper's contention experiments use a single
        storage node serving 1–64 requesting processes.
    compute_spec, storage_spec:
        Per-class hardware.  The paper restricts storage nodes to two
        cores (Sec. IV-A); compute nodes use all of theirs.
    network_bandwidth:
        Nominal point-to-point bandwidth in bytes/s.
    bandwidth_jitter:
        Fractional uniform jitter on each transfer's effective
        bandwidth, reproducing the 111–120 MB/s variation the paper
        blames for its scheduler's 5 % misjudgment rate.  0 disables.
    stripe_size:
        PVFS striping unit.
    network_latency:
        Fixed per-transfer latency in seconds (connection setup +
        propagation).  One of the real-system factors the paper's
        scheduling algorithm deliberately ignores ("other factors,
        such as the system task scheduling and network latency, are
        not considered") and a source of its boundary misjudgments.
    seed:
        Seed for every stochastic element (jitter); runs are fully
        reproducible.

    Server-side disk time is folded into the kernel and network rates
    (the paper's abstraction), so a normal read or write is one link
    transfer.
    """

    n_compute: int = 15
    n_storage: int = 1
    compute_spec: NodeSpec = field(default_factory=lambda: NodeSpec(cores=8))
    storage_spec: NodeSpec = field(default_factory=lambda: NodeSpec(cores=2))
    network_bandwidth: float = DISCFARM_BANDWIDTH
    bandwidth_jitter: float = 0.0
    stripe_size: int = 4 * MB
    network_latency: float = 0.0
    seed: int = 20120924  # CLUSTER'12 conference dates

    def __post_init__(self) -> None:
        if self.n_compute <= 0 or self.n_storage <= 0:
            raise ValueError("node counts must be positive")
        if self.network_bandwidth <= 0:
            raise ValueError("network_bandwidth must be positive")
        if not 0 <= self.bandwidth_jitter < 1:
            raise ValueError("bandwidth_jitter must lie in [0, 1)")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if self.network_latency < 0:
            raise ValueError("network_latency must be non-negative")

    def with_(self, **changes) -> "ClusterConfig":
        """Return a modified copy (dataclasses.replace sugar)."""
        return replace(self, **changes)


def discfarm_config(
    n_storage: int = 1,
    n_compute: Optional[int] = None,
    jitter: bool = False,
) -> ClusterConfig:
    """The paper's testbed (Sec. IV-A).

    One Dell R515 plus 15 R415 nodes on 1 GigE at a measured
    118 MB/s; experiments used only R415s, storage nodes simulated with
    2 cores, compute and storage cores equally fast.

    Parameters
    ----------
    n_storage:
        Number of storage nodes (the paper reports per-storage-node
        request counts, so 1 is the canonical choice).
    n_compute:
        Number of compute nodes; default 64 so every "64 I/Os per
        storage node" point can place each requesting process on its
        own node, matching the paper's one-process-per-I/O assumption.
    jitter:
        Enable the 111–120 MB/s bandwidth variation.
    """
    if n_compute is None:
        n_compute = 64 * n_storage
    # 111..120 around 118 is asymmetric; use the paper's span as the
    # jitter envelope: half-width ~4.5/118.
    jitter_frac = ((DISCFARM_BANDWIDTH_MAX - DISCFARM_BANDWIDTH_MIN) / 2) / DISCFARM_BANDWIDTH
    return ClusterConfig(
        n_compute=n_compute,
        n_storage=n_storage,
        compute_spec=NodeSpec(cores=8, core_speed=1.0),
        storage_spec=NodeSpec(cores=2, core_speed=1.0),
        network_bandwidth=DISCFARM_BANDWIDTH,
        bandwidth_jitter=jitter_frac if jitter else 0.0,
    )
