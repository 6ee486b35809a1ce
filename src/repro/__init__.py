"""repro — a full reproduction of DOSAS (IEEE CLUSTER 2012).

"DOSAS: Mitigating the Resource Contention in Active Storage Systems",
Chao Chen, Yong Chen and Philip C. Roth.

Subpackages
-----------
``repro.sim``
    From-scratch discrete-event simulation engine (SimPy-style).
``repro.cluster``
    The modelled machine: nodes, cores, NIC links, probes (calibrated
    to the paper's Discfarm testbed).
``repro.pvfs``
    PVFS2-like parallel file system: striping, metadata, I/O servers.
``repro.kernels``
    Processing kernels: real numpy implementations with streaming
    checkpoint/restore plus calibrated cost models.
``repro.mpiio``
    Enhanced MPI-IO interface (``MPI_File_read_ex`` + struct result).
``repro.core``
    The paper's contribution: cost model, 0/1 offload schedulers,
    Contention Estimator, Active I/O Runtime, ASC/ASS, and the
    TS/AS/DOSAS scheme runners.
``repro.workload``
    Workload generators and the paper's sweep grids.
``repro.parallel`` / ``repro.cache``
    Parallel sweep runner (deterministic merged results) and the
    on-disk result cache it reuses points from.
``repro.analysis``
    Metrics and one driver per paper figure/table.

Quickstart
----------
.. code-block:: python

    from repro import Scheme, WorkloadSpec, run_scheme
    from repro.cluster import MB

    spec = WorkloadSpec(kernel="gaussian2d", n_requests=8,
                        request_bytes=128 * MB)
    for scheme in Scheme:
        r = run_scheme(scheme, spec)
        print(scheme.value, f"{r.makespan:.2f}s")
"""

from repro.core.schemes import DEFAULT_SEED, Scheme, SchemeResult, WorkloadSpec, run_scheme
from repro.cluster.config import GB, KB, MB, discfarm_config
from repro.qos import QoSConfig

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_SEED",
    "GB",
    "KB",
    "MB",
    "QoSConfig",
    "ResultCache",
    "Scheme",
    "SchemeResult",
    "SweepPoint",
    "SweepRunner",
    "WorkloadSpec",
    "discfarm_config",
    "run_scheme",
    "__version__",
]

from repro.cache import ResultCache  # noqa: E402  (needs __version__ for the salt)
from repro.parallel import SweepPoint, SweepRunner  # noqa: E402
