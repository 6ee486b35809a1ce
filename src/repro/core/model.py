"""The DOSAS analytic cost model (paper Sec. III-D, Table II, Eq. 1–7).

Notation (Table II)::

    n        I/O requests in the queue
    k        active I/O requests among them
    d_i      request data size of the i-th request
    D_A      total active-request bytes    (Σ d_i over active)
    D_N      total normal-request bytes
    D        D_A + D_N
    S_{C,op} storage-node capability for op  (bytes/s)
    C_{C,op} compute-node capability for op  (bytes/s)
    f(x)     compute time  = x / S  (storage)  or  x / C  (compute)
    g(x)     transfer time = x / bw
    h(x)     result size of active computation on x bytes
    bw       compute↔storage network bandwidth

Whole-queue estimates (Eq. 1–3)::

    T_A = f(D_A) + g(D_N) + g(h(D_A))          # all active done actively
    IO_size = max(d_i)   over active requests
    T_N = g(D) + f(IO_size)                     # everything as normal I/O

Per-request terms for the 0/1 optimisation (Eq. 4–7)::

    x_i = d_i / S + h(d_i) / bw                 # cost if done actively
    y_i = d_i / bw                              # cost if demoted
    z   = max_i d_i (1 - a_i) / C               # parallel client compute
    t   = Σ [x_i a_i + y_i (1 - a_i)] + z       # objective (Eq. 4)

The objective encodes the paper's empirically calibrated execution
model: active computations serialise on the storage node's kernel
executor (the Σ x_i a_i term), demoted transfers serialise on the NIC
(the Σ y_i term), and demoted computations run in parallel on their
requesting compute nodes (the max-term z).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.kernels.costs import KernelCostModel

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np
    import numpy.typing as npt


@dataclass(frozen=True)
class CostModel:
    """System parameters the scheduler reasons with.

    Attributes
    ----------
    kernel:
        Cost model of the operation (``op``): S_max, h(x).
    storage_capability:
        S_{C,op} — effective storage-node rate for the op, bytes/s.
        The Contention Estimator derives this from the kernel's max
        rate and the probed system state.
    compute_capability:
        C_{C,op} — compute-node rate for the op, bytes/s.
    bandwidth:
        bw — network bandwidth, bytes/s.
    """

    kernel: KernelCostModel
    storage_capability: float
    compute_capability: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.storage_capability <= 0:
            raise ValueError("storage_capability must be positive")
        if self.compute_capability <= 0:
            raise ValueError("compute_capability must be positive")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    # -- Table II primitives ------------------------------------------------
    def f_storage(self, nbytes: float) -> float:
        """f(x) on the storage node: x / S_{C,op}."""
        return nbytes / self.storage_capability

    def f_compute(self, nbytes: float) -> float:
        """f(x) on a compute node: x / C_{C,op}."""
        return nbytes / self.compute_capability

    def g(self, nbytes: float) -> float:
        """g(x): network transfer time x / bw."""
        return nbytes / self.bandwidth

    def h(self, nbytes: float) -> float:
        """h(x): result bytes of active computation on x input bytes."""
        return self.kernel.h(nbytes)

    # -- Eq. 1–3: whole-queue estimates -----------------------------------------
    def t_all_active(self, active_sizes: Sequence[float], normal_bytes: float = 0.0) -> float:
        """T_A (Eq. 1): every active request executed on storage."""
        d_a = float(sum(active_sizes))
        h_total = float(sum(self.h(d) for d in active_sizes))
        return self.f_storage(d_a) + self.g(normal_bytes) + self.g(h_total)

    def t_all_normal(self, active_sizes: Sequence[float], normal_bytes: float = 0.0) -> float:
        """T_N (Eq. 2–3): every request served as normal I/O."""
        if not active_sizes:
            return self.g(normal_bytes)
        io_size = max(active_sizes)  # Eq. 2
        d = float(sum(active_sizes)) + normal_bytes
        return self.g(d) + self.f_compute(io_size)

    # -- Eq. 5–7: per-request terms ----------------------------------------------
    def x_i(self, d_i: float) -> float:
        """Eq. 5: active cost of one request = d_i/S + h(d_i)/bw."""
        return self.f_storage(d_i) + self.g(self.h(d_i))

    def y_i(self, d_i: float) -> float:
        """Eq. 6: demoted transfer cost = d_i/bw."""
        return self.g(d_i)

    def z(self, demoted_sizes: Sequence[float]) -> float:
        """Eq. 7: parallel client compute = max demoted d_i / C."""
        if not demoted_sizes:
            return 0.0
        return max(demoted_sizes) / self.compute_capability

    # -- Eq. 4: the objective -----------------------------------------------------
    def objective(self, sizes: Sequence[float], assignment: Sequence[int]) -> float:
        """t (Eq. 4) for a concrete 0/1 assignment.

        ``assignment[i] == 1`` ⇔ the i-th active request is executed
        on the storage node.
        """
        if len(sizes) != len(assignment):
            raise ValueError("sizes and assignment lengths differ")
        total = 0.0
        demoted: List[float] = []
        for d_i, a_i in zip(sizes, assignment):
            if a_i not in (0, 1):
                raise ValueError(f"assignment entries must be 0/1, got {a_i}")
            if a_i:
                total += self.x_i(d_i)
            else:
                total += self.y_i(d_i)
                demoted.append(d_i)
        return total + self.z(demoted)


@dataclass(frozen=True)
class RequestCost:
    """Pre-computed per-request terms handed to the solvers.

    ``w_i = d_i / C_{C,op_i}`` is the request's *client compute time*
    if demoted — the quantity the z term (Eq. 7) maximises.  Keeping
    it per-request (instead of dividing by one global C) lets a single
    solver instance mix operations with different client rates: the
    joint objective is

        t = Σ [x_i a_i + y_i (1 - a_i)] + max_i w_i (1 - a_i)

    which reduces to the paper's Eq. 4 when all requests share an op.
    """

    rid: int
    d_i: float
    x_i: float
    y_i: float
    w_i: float = 0.0

    def __post_init__(self) -> None:
        if self.d_i < 0:
            raise ValueError("d_i must be non-negative")
        if self.w_i < 0:
            raise ValueError("w_i must be non-negative")


@dataclass(frozen=True)
class SchedulingInstance:
    """One solver input: k active requests with per-request terms.

    Built by the Contention Estimator from the probed I/O queue.
    ``model`` is kept for single-op instances (tests, documentation);
    mixed-operation instances built with :meth:`from_costs` may pass
    ``model=None`` — the solvers only consume the x/y/w vectors.
    """

    model: Optional[CostModel]
    costs: Tuple[RequestCost, ...]

    @staticmethod
    def from_sizes(model: CostModel, sizes: Sequence[float], rids: Optional[Sequence[int]] = None) -> "SchedulingInstance":
        """Build a single-operation instance from raw request sizes."""
        if rids is None:
            rids = list(range(len(sizes)))
        if len(rids) != len(sizes):
            raise ValueError("rids and sizes lengths differ")
        costs = tuple(
            RequestCost(
                rid=rid,
                d_i=float(d),
                x_i=model.x_i(d),
                y_i=model.y_i(d),
                w_i=float(d) / model.compute_capability,
            )
            for rid, d in zip(rids, sizes)
        )
        return SchedulingInstance(model=model, costs=costs)

    @staticmethod
    def from_costs(costs: Sequence[RequestCost]) -> "SchedulingInstance":
        """Build a (possibly mixed-operation) instance directly."""
        return SchedulingInstance(model=None, costs=tuple(costs))

    @property
    def k(self) -> int:
        """Number of active requests."""
        return len(self.costs)

    @property
    def sizes(self) -> npt.NDArray[np.float64]:
        """d vector."""
        import numpy as np

        return np.array([c.d_i for c in self.costs], dtype=np.float64)

    @property
    def x(self) -> npt.NDArray[np.float64]:
        """x vector (Eq. 5)."""
        import numpy as np

        return np.array([c.x_i for c in self.costs], dtype=np.float64)

    @property
    def y(self) -> npt.NDArray[np.float64]:
        """y vector (Eq. 6)."""
        import numpy as np

        return np.array([c.y_i for c in self.costs], dtype=np.float64)

    @property
    def w(self) -> npt.NDArray[np.float64]:
        """w vector: per-request client compute time (Eq. 7's operand)."""
        import numpy as np

        return np.array([c.w_i for c in self.costs], dtype=np.float64)

    def value(self, assignment: Sequence[int]) -> float:
        """Joint objective of ``assignment``.

        t = Σ [x_i a_i + y_i (1 − a_i)] + max_i w_i (1 − a_i) —
        identical to the paper's Eq. 4 for single-op instances (a
        property the test suite checks against ``CostModel.objective``).
        """
        if len(assignment) != self.k:
            raise ValueError("assignment length mismatch")
        total = 0.0
        z = 0.0
        for cost, a_i in zip(self.costs, assignment):
            if a_i not in (0, 1):
                raise ValueError(f"assignment entries must be 0/1, got {a_i}")
            if a_i:
                total += cost.x_i
            else:
                total += cost.y_i
                z = max(z, cost.w_i)
        return total + z
