"""Shared protocol plumbing.

:func:`run_broadcast` is the one-call harness most experiments use: it
builds an engine over a graph with a program per node, runs it, and
returns the :class:`~repro.sim.engine.RunResult`.  Stopping policy:

* ``stop="informed"`` — stop as soon as every node has received a
  message (measures the paper's completion time ``T_fin``; the real
  protocol would keep transmitting a bit longer, harmlessly);
* ``stop="terminated"`` — run until every program reports done
  (measures termination time and total message cost — paper property 2
  and Theorem 4's second clause).

Either way the run is capped at ``max_slots`` — a failed broadcast
(which randomized runs exhibit with probability ≤ ε) shows up as
``RunResult.broadcast_succeeded() == False``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Literal, Mapping

from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.sim.engine import Engine, RunResult
from repro.sim.faults import FaultSchedule
from repro.sim.medium import Medium
from repro.sim.node import NodeProgram

__all__ = ["run_broadcast", "all_informed", "ordered_nodes"]

Node = Hashable


def ordered_nodes(nodes) -> list[Node]:
    """Natural order when labels are comparable, repr order otherwise."""
    items = list(nodes)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def all_informed(engine: Engine) -> bool:
    """Stop condition: every non-initiator node has received a message."""
    # Initiators count as informed whether or not they also received.
    return engine.informed_count >= engine.graph.num_nodes()


def run_broadcast(
    graph: Graph,
    programs: Mapping[Node, NodeProgram],
    *,
    initiators: set[Node] | frozenset[Node],
    max_slots: int,
    seed: int = 0,
    medium: Medium | None = None,
    faults: FaultSchedule | None = None,
    record_trace: bool = False,
    record_provenance: bool = False,
    enforce_no_spontaneous: bool = True,
    stop: Literal["informed", "terminated"] = "informed",
    extra_stop: Callable[[Engine], bool] | None = None,
) -> RunResult:
    """Run a broadcast-style protocol to completion (see module docs)."""
    if not initiators:
        raise SimulationError("broadcast needs at least one initiator")
    engine = Engine(
        graph,
        programs,
        medium=medium,
        seed=seed,
        initiators=frozenset(initiators),
        enforce_no_spontaneous=enforce_no_spontaneous,
        faults=faults,
        record_trace=record_trace,
        record_provenance=record_provenance,
    )
    if stop == "informed":
        stop_when: Callable[[Engine], bool] | None = all_informed
    elif stop == "terminated":
        stop_when = None  # engine stops when all programs are done
    else:
        raise SimulationError(f"unknown stop policy {stop!r}")
    if extra_stop is not None:
        primary = stop_when

        def stop_when(engine: Engine, _primary=primary, _extra=extra_stop) -> bool:
            if _primary is not None and _primary(engine):
                return True
            return _extra(engine)

    return engine.run(max_slots, stop_when=stop_when)
