"""Discrete-event simulation engine underlying the DOSAS reproduction.

This subpackage is a from-scratch, dependency-free discrete-event
simulation (DES) kernel in the style of SimPy: simulation *processes*
are Python generator coroutines that ``yield`` :class:`Event` objects
and are resumed by the :class:`Environment` event loop when those
events trigger.

The DOSAS paper evaluated its prototype on a real 16-node cluster
(Discfarm at Texas Tech).  We do not have that hardware, so the cluster
— compute and storage nodes, their cores and NICs — is modelled on top of
this engine with rates calibrated from the paper (see
``repro.cluster``).  The engine itself is generic and reusable.

Public surface
--------------
``Environment``
    The event loop: owns simulated time, schedules events, runs
    processes.
``Event``, ``Timeout``, ``Process``, ``AllOf``, ``AnyOf``
    Waitable objects.
``Interrupt``, ``Failure``
    Exceptions raised inside a process when another process interrupts
    it — ``Interrupt`` for scheduling decisions (the Active I/O Runtime
    preempting a kernel), ``Failure`` for injected component failures
    (crash, degrade, cancellation; see ``repro.faults``).
``Resource``, ``PriorityResource``, ``Store``
    Shared-resource primitives used to model CPU cores, NIC links and
    the Active I/O Runtime's request queue.
``TimeWeightedStat``
    Time-weighted average of a piecewise-constant signal.
``HeapScheduler``
    The pending-event queue: one binary heap in ``(time, priority,
    insertion order)`` order, with lazy deletion of cancelled timers.
"""

from repro.sim.exceptions import Failure, Interrupt, SimulationError, StopProcess
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    PENDING,
    Timeout,
    Timer,
)
from repro.sim.engine import Environment
from repro.sim.scheduler import HeapScheduler, make_event_scheduler
from repro.sim.process import Process
from repro.sim.resources import (
    PriorityRequest,
    PriorityResource,
    Release,
    Request,
    Resource,
)
from repro.sim.store import Store, StoreGet, StorePut
from repro.sim.monitor import TimeWeightedStat

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Failure",
    "HeapScheduler",
    "Interrupt",
    "PENDING",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Release",
    "Request",
    "Resource",
    "SimulationError",
    "StopProcess",
    "Store",
    "StoreGet",
    "StorePut",
    "TimeWeightedStat",
    "Timeout",
    "Timer",
    "make_event_scheduler",
]
