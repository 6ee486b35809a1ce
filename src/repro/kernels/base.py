"""Kernel framework: chunked execution, checkpoint, restore, combine.

Paper Sec. III-E: when a kernel receives a terminating signal from the
Active I/O Runtime, "it will write the shared memory with its status,
including the values of all variables in the form (variable name,
variable type, value)".  :class:`KernelState` is that variable bag;
:class:`KernelCheckpoint` is the serialised form shipped back to the
Active Storage Client inside ``struct result``'s ``buf`` when an
interrupted active I/O is demoted to a normal I/O.

The resumed computation must produce *exactly* the result an
uninterrupted run would have produced — a property the test suite
checks for every kernel (hypothesis: split at arbitrary chunk
boundaries, migrate, compare).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class KernelExecutionError(Exception):
    """Raised when a kernel is driven incorrectly (bad state, bad data)."""


class KernelState:
    """The mutable variable bag of one in-progress kernel execution.

    Behaves like a small typed namespace.  Only numpy scalars/arrays,
    Python ints/floats/bools/strs/bytes and flat lists of those may be
    stored, so the state is always checkpointable.
    """

    #: The storable types, built by the first state so that importing
    #: this module does not load numpy.
    _ALLOWED: Tuple[type, ...] = ()

    def __init__(self) -> None:
        if not KernelState._ALLOWED:
            import numpy as np

            KernelState._ALLOWED = (int, float, bool, str, bytes, np.ndarray, np.generic)
        self._vars: Dict[str, Any] = {}

    def __setitem__(self, name: str, value: Any) -> None:
        if not isinstance(name, str) or not name:
            raise KernelExecutionError("variable names must be non-empty strings")
        if not isinstance(value, self._ALLOWED) and not (
            isinstance(value, list)
            and all(isinstance(v, self._ALLOWED) for v in value)
        ):
            raise KernelExecutionError(
                f"variable {name!r} has uncheckpointable type {type(value).__name__}"
            )
        self._vars[name] = value

    def __getitem__(self, name: str) -> Any:
        try:
            return self._vars[name]
        except KeyError:
            raise KernelExecutionError(f"kernel state has no variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def get(self, name: str, default: Any = None) -> Any:
        """Variable value or ``default``."""
        return self._vars.get(name, default)

    def names(self) -> List[str]:
        """Variable names, insertion-ordered."""
        return list(self._vars)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate over (name, value) pairs."""
        return iter(self._vars.items())

    def __len__(self) -> int:
        return len(self._vars)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelState {list(self._vars)}>"


@dataclass(frozen=True)
class KernelCheckpoint:
    """Serialised kernel execution state (paper's variable records).

    Attributes
    ----------
    kernel:
        Registered kernel name.
    bytes_done:
        Input bytes fully incorporated into the state.
    records:
        Tuples of ``(variable name, variable type, value)`` exactly as
        the paper specifies the shared-memory format.
    """

    kernel: str
    bytes_done: int
    records: Tuple[Tuple[str, str, Any], ...]

    @staticmethod
    def capture(kernel_name: str, bytes_done: int, state: KernelState) -> "KernelCheckpoint":
        """Snapshot ``state`` into an immutable checkpoint."""
        import numpy as np

        records = []
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                records.append((name, f"ndarray:{value.dtype}", value.copy()))
            elif isinstance(value, np.generic):
                records.append((name, f"scalar:{value.dtype}", value))
            else:
                records.append((name, type(value).__name__, value))
        return KernelCheckpoint(kernel_name, int(bytes_done), tuple(records))

    def restore(self) -> KernelState:
        """Rebuild a live :class:`KernelState` from the records."""
        import numpy as np

        state = KernelState()
        for name, _typ, value in self.records:
            state[name] = value.copy() if isinstance(value, np.ndarray) else value
        return state

    @property
    def nbytes(self) -> int:
        """Approximate wire size of the checkpoint payload."""
        if not self.records:  # a timing-only run's checkpoint
            return 0
        import numpy as np

        total = 0
        for name, typ, value in self.records:
            total += len(name) + len(typ)
            if isinstance(value, np.ndarray):
                total += value.nbytes
            elif isinstance(value, (bytes, str)):
                total += len(value)
            else:
                total += 8
        return total


class Kernel(abc.ABC):
    """Base class for all processing kernels.

    Subclasses define the streaming protocol::

        state = k.init_state(meta)
        for chunk in chunks:                  # numpy views over the input
            k.process_chunk(state, chunk)
        result = k.finalize(state)

    plus :meth:`combine` to merge partial results from striped servers,
    and the cost-model hooks :meth:`result_bytes` / :attr:`rate` used
    by the simulator.

    Parameters
    ----------
    rate:
        Calibrated single-core processing rate, bytes/s.  Subclasses
        default to the paper's Table III value where one exists.
    """

    #: Registered name, set by subclasses.
    name: str = ""
    #: Default single-core rate (bytes/s); see Table III.
    default_rate: float = 100 * 1024 * 1024
    #: Name of the numpy dtype the kernel consumes.  A name, not a
    #: ``np.dtype``, so that defining a kernel does not load numpy.
    dtype: str = "float64"
    #: Filter kernels whose full-size output is written back to the
    #: parallel file system at the producing node (Son et al. [22]
    #: convention) — only an acknowledgement crosses the network.
    writes_output: bool = False

    def __init__(self, rate: Optional[float] = None) -> None:
        if not self.name:
            raise KernelExecutionError(f"{type(self).__name__} did not set a name")
        self.rate = float(rate) if rate is not None else float(self.default_rate)
        if self.rate <= 0:
            raise KernelExecutionError("rate must be positive")

    # -- cost-model hooks -------------------------------------------------
    def result_bytes(self, input_bytes: float) -> float:
        """h(x): size of the result computed on ``input_bytes`` of input.

        Reduction kernels return a near-constant tiny result; filter
        kernels that write their output back to storage return an
        acknowledgement-sized payload (see DESIGN.md).
        """
        return 8.0

    # -- streaming execution ----------------------------------------------
    @abc.abstractmethod
    def init_state(self, meta: Optional[dict] = None) -> KernelState:
        """Create the starting state for one execution.

        ``meta`` carries kernel-specific shape info (e.g. image width
        for 2-D filters).
        """

    @abc.abstractmethod
    def process_chunk(self, state: KernelState, chunk: np.ndarray) -> None:
        """Fold one input chunk (1-D array of :attr:`dtype`) into state."""

    @abc.abstractmethod
    def finalize(self, state: KernelState) -> Any:
        """Produce the kernel's result from a fully-fed state."""

    def combine(self, partials: Sequence[Any]) -> Any:
        """Merge per-server partial results (striped-file support).

        The default refuses, so kernels that cannot be combined fail
        loudly; reduction kernels override this.
        """
        raise KernelExecutionError(
            f"kernel {self.name!r} does not support striped combination"
        )

    # -- convenience -------------------------------------------------------
    def apply(self, data: np.ndarray, meta: Optional[dict] = None, chunk_elems: int = 1 << 20) -> Any:
        """Run the full streaming pipeline over ``data`` in one call."""
        import numpy as np

        flat = np.ascontiguousarray(data).reshape(-1).view(self.dtype)
        state = self.init_state(meta)
        for start in range(0, flat.size, chunk_elems):
            self.process_chunk(state, flat[start : start + chunk_elems])
        return self.finalize(state)

    def checkpoint(self, state: KernelState, bytes_done: int) -> KernelCheckpoint:
        """Freeze ``state`` for migration (terminate-signal handler)."""
        return KernelCheckpoint.capture(self.name, bytes_done, state)

    def resume(self, checkpoint: KernelCheckpoint) -> KernelState:
        """Thaw a checkpoint produced by any node's PK instance."""
        if checkpoint.kernel != self.name:
            raise KernelExecutionError(
                f"checkpoint is for kernel {checkpoint.kernel!r}, not {self.name!r}"
            )
        return checkpoint.restore()

    def state_from(
        self, checkpoint: Optional[KernelCheckpoint], meta: Optional[dict] = None
    ) -> KernelState:
        """The state an execution continues from, on either side.

        Resumes ``checkpoint`` when it holds variable records; starts
        from :meth:`init_state` otherwise — no checkpoint, or one that
        carries progress only (a timing-only run's).
        """
        if checkpoint is not None and checkpoint.records:
            return self.resume(checkpoint)
        return self.init_state(meta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Kernel {self.name} rate={self.rate:.3g} B/s>"
