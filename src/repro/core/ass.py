"""The Active Storage Server (ASS) — paper Sec. III-A.

"The ASS is placed on storage nodes, and is responsible for processing
different I/O requests."  It is the composition of the Active I/O
Runtime, the Contention Estimator and a storage-side PK deployment,
attached to a PVFS I/O server as its active handler.  The runtime
talks to its kernels by the paper's Sec. III-E protocol: the interrupt
it throws into a kernel process is the terminate signal, and the
kernel answers with a :class:`~repro.kernels.base.KernelCheckpoint`
of (name, type, value) records.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.engine import Environment
from repro.cluster.network import Link
from repro.cluster.node import StorageNode
from repro.kernels.registry import KernelRegistry, default_registry
from repro.core.estimator import ContentionEstimator
from repro.core.runtime import ActiveIORuntime, RuntimeConfig
from repro.pvfs.requests import IORequest
from repro.pvfs.server import IOServer


class ActiveStorageServer:
    """One storage node's active-storage stack."""

    def __init__(
        self,
        env: Environment,
        server: IOServer,
        estimator: ContentionEstimator,
        registry: Optional[KernelRegistry] = None,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.node: StorageNode = server.node
        self.link: Link = server.link
        #: Storage-side PK deployment (paper: kernels live on both
        #: sides).  Kernel objects are stateless (execution state is
        #: externalised in KernelState), so deployments may share
        #: instances — which also lets experiments override a kernel's
        #: rate once and have every side observe it.
        self.registry = registry or default_registry
        self.estimator = estimator
        self.runtime = ActiveIORuntime(
            env=env,
            server=server,
            node=self.node,
            link=self.link,
            registry=self.registry,
            estimator=estimator,
            config=config,
        )
        server.attach_active_handler(self)

    # -- ActiveHandler protocol --------------------------------------------------
    def submit(self, request: IORequest) -> None:
        """Route an active request into the runtime."""
        self.runtime.submit(request)

    # -- failure hooks (see repro.faults) ----------------------------------------
    def on_crash(self, cause: str = "node-crash") -> None:
        """Forwarded by the I/O server when the node crashes."""
        self.runtime.on_crash(cause)

    def on_degrade(self, cause: str = "node-degrade") -> None:
        """Checkpoint/migrate running kernels after a CPU derate."""
        self.runtime.on_degrade(cause)

    def abort(self, rid: int) -> bool:
        """Forwarded by the I/O server on client cancellation."""
        return self.runtime.abort(rid)

    def shed(self, rid: int) -> bool:
        """Forwarded by the I/O server's admission control (overload)."""
        return self.runtime.shed(rid)

    @property
    def stats(self) -> Dict[str, int]:
        """Runtime counters (served/demoted/interrupted)."""
        return dict(self.runtime.stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ActiveStorageServer {self.node.name}>"
