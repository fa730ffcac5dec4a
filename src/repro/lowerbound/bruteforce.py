"""The deterministic worst case on ``C_n``, exactly, on the real engine.

The reduction chain (Lemmas 5–7) and the ``find_set`` adversary prove
the Ω(n) bound for *abstract* protocols; this module closes the loop for
deterministic :class:`NodeProgram`-based protocols on the engine, over
**every** non-empty hidden set ``S ⊆ {1, .., n}``.

:func:`adversarial_cn_worst_case`, which the experiments use, runs the
engine once, along an adversary's line.  The graph starts with ``E1``
only, and an uninformed sink is silent (rule 5), so ``S`` matters only
through a node's reads of its neighbour set and through whether the
sink hears exactly one member of ``S``.  A node's χ ("is it in ``S``")
is decided at its first read or its first transmission while the sink
is uninformed.  The line takes χ = 0, except that the last undetermined
node gets χ = 1 (``S`` is non-empty).  Every other ``S`` leaves the line
at a decided node with χ = 1, and that branch must *settle in its
slot*: the node transmits (its program rerun from a copy taken before
the slot, on the χ = 1 view), the sink listens and every other node is
informed, so completion is that slot, which the line cannot undercut.
Whatever the search cannot settle raises
:class:`~repro.errors.ExperimentError` naming the node and the slot
(DESIGN.md §4.12 lists the contract): it never returns a number it did
not prove.  The witness is the line's ``S``, ``{n}`` for DFS and round
robin.

:func:`exhaustive_cn_worst_case` runs all ``2^n − 1`` graphs ``G_S``; it
is the search's test oracle, for small ``n``.  Theorem 12 says the worst
case is ≥ n/8 for every deterministic protocol.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from repro.errors import ExperimentError
from repro.graphs.generators import c_n
from repro.graphs.graph import Graph
from repro.protocols.base import all_informed, run_broadcast
from repro.sim.engine import Engine, Entry
from repro.sim.node import Context, NodeProgram, Transmit

__all__ = [
    "WorstCase",
    "adversarial_cn_worst_case",
    "exhaustive_cn_worst_case",
    "all_hidden_sets",
]

Node = Hashable
ProgramFactory = Callable[[Graph], Mapping[Node, NodeProgram]]


def all_hidden_sets(n: int):
    """Every non-empty subset of {1..n}, smallest first."""
    universe = range(1, n + 1)
    for size in range(1, n + 1):
        yield from (frozenset(c) for c in itertools.combinations(universe, size))


@dataclass(frozen=True)
class WorstCase:
    """A protocol's worst case over all of ``C_n``."""

    n: int
    worst_slots: int
    worst_set: frozenset[int]
    instances: int
    all_completed: bool

    def satisfies_theorem12(self) -> bool:
        """Theorem 12: worst case ≥ n/8 slots (completion is counted as
        the first slot index by which all nodes have received, so the
        slot *count* is ``worst_slots + 1``)."""
        return (self.worst_slots + 1) >= self.n / 8


def exhaustive_cn_worst_case(
    make_programs: ProgramFactory,
    n: int,
    *,
    max_slots: int | None = None,
) -> WorstCase:
    """Run ``make_programs`` on every ``G_S`` and take the worst case
    (``n ≤ 16``; the first worst ``S`` in :func:`all_hidden_sets` order
    is the witness)."""
    if n < 1:
        raise ExperimentError("n must be >= 1")
    if n > 16:
        raise ExperimentError(f"2^{n} instances is too many; keep n <= 16")
    cap = max_slots if max_slots is not None else 4 * (n + 2)
    worst = -1
    worst_set: frozenset[int] = frozenset()
    all_completed = True
    for s in all_hidden_sets(n):
        g = c_n(n, s)
        result = run_broadcast(
            g, make_programs(g), initiators={0}, max_slots=cap, stop="informed"
        )
        slot = result.broadcast_completion_slot(source=0)
        if slot is None:
            slot = cap
            all_completed = False
        if slot > worst:
            worst = slot
            worst_set = s
    return WorstCase(
        n=n,
        worst_slots=worst,
        worst_set=worst_set,
        instances=2**n - 1,
        all_completed=all_completed,
    )


def adversarial_cn_worst_case(
    make_programs: ProgramFactory,
    n: int,
    *,
    max_slots: int | None = None,
) -> WorstCase:
    """The exact worst case over all ``2^n − 1`` hidden sets, from one
    engine run along the adversary's line (see the module docstring).

    ``make_programs`` is given ``C_n``'s node set only; a run that does
    not finish within ``max_slots`` (default ``4(n + 2)``) counts as
    ``max_slots``, as in :func:`exhaustive_cn_worst_case`.
    """
    if n < 1:
        raise ExperimentError("n must be >= 1")
    cap = max_slots if max_slots is not None else 4 * (n + 2)
    programs = make_programs(_NodeSet(n + 2))
    e1 = Graph(nodes=range(n + 2), edges=((0, i) for i in range(1, n + 1)))
    engine = _LineEngine(n, e1, programs)
    result = engine.run(cap, stop_when=all_informed)
    engine.check_copies()
    slot = result.broadcast_completion_slot(source=0)
    # The line's χ = 1 node, or, if it never got that far, the nodes
    # still undetermined: every S among them runs the line.
    witness = result.graph.neighbors(n + 1) or frozenset(engine.line.undetermined)
    return WorstCase(
        n=n,
        worst_slots=cap if slot is None else slot,
        worst_set=witness,
        instances=2**n - 1,
        all_completed=slot is not None,
    )


class _NodeSet:
    """``C_n``'s nodes, as the graph a program factory is given.

    A factory that reads anything else (adjacency) would build programs
    for one ``G_S``, not for every one, so that read is refused.
    """

    def __init__(self, count: int) -> None:
        self.nodes = list(range(count))

    def num_nodes(self) -> int:
        return len(self.nodes)

    def has_node(self, node: object) -> bool:
        return node in self.nodes

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        raise ExperimentError(
            f"the program factory read graph.{name}; the C_n search gives "
            "factories the node set only, since the topology is the hidden S"
        )


class _Line:
    """The adversary's line: which χ are decided, and the branch that
    must settle in the current slot."""

    def __init__(self, n: int, graph: Graph, informed: set[Node]) -> None:
        self.sink = n + 1
        #: The engine's graph: E1, plus (u, sink) once u gets χ = 1.
        self.graph = graph
        #: The engine's informed set (initiators and receivers).
        self.informed = informed
        self.undetermined = set(range(1, n + 1))
        self.slot = 0
        #: ``(slot, node)`` of the last decision.
        self.last: tuple[int, Node] = (-1, None)
        #: Due undetermined nodes' states from before this slot's pass.
        self.snapshots: dict[Node, tuple[NodeProgram, dict]] = {}
        #: ``(node, snapshot or None)`` whose χ = 1 branch must settle
        #: in this slot; ``None``: it transmitted, so its branch did too.
        self.branch: tuple[Node, Any] | None = None

    def read(self, node: Node) -> frozenset[Node]:
        """``node``'s neighbour set, deciding its χ on a first read."""
        if node in self.undetermined:
            if self.decide(node):
                snapshot = self.snapshots.pop(node, None)
                if snapshot is None:
                    raise ExperimentError(
                        f"node {node!r} reads its neighbour set at slot "
                        f"{self.slot} outside its slot's pass, so its "
                        "χ = 1 branch cannot settle in that slot"
                    )
                self.branch = (node, snapshot)
        elif node == self.sink and node not in self.informed:
            raise ExperimentError(
                f"the sink reads its neighbour set (which is S) at slot "
                f"{self.slot} while uninformed; the C_n search "
                "cannot branch on it"
            )
        return self.graph.neighbors(node)

    def decide(self, node: Node) -> bool:
        """Decide ``node``'s χ in this slot; True iff it is 0 with a
        χ = 1 branch to settle, False iff it is forced to 1."""
        if self.last[0] == self.slot:
            raise ExperimentError(
                f"nodes {self.last[1]!r} and {node!r} are both decided at "
                f"slot {self.slot}; with both in S neither branch settles "
                "alone, so the C_n search refuses the protocol"
            )
        self.last = (self.slot, node)
        self.undetermined.discard(node)
        if self.undetermined:
            return True
        self.graph.add_edge(node, self.sink)  # S is non-empty
        return False


class _LineContext(Context):
    """A node's context on the line: its neighbour set is the line's to
    decide on first read, and it has no coin stream."""

    line: _Line

    def __init__(self, node: Node, neighbor_ids: frozenset[Node], seed: int) -> None:
        # The E1 neighbour set and the seed go unused: see the properties.
        self.node = node
        self.slot = 0
        self.extras = {}

    @property
    def neighbor_ids(self) -> frozenset[Node]:  # type: ignore[override]
        return self.line.read(self.node)

    @property
    def rng(self) -> Any:  # type: ignore[override]
        raise ExperimentError(
            f"node {self.node!r} read its coin stream; the C_n search takes "
            "deterministic protocols only"
        )


class _BranchContext(Context):
    """A node's context in its χ = 1 branch."""

    def __init__(
        self, node: Node, neighbor_ids: frozenset[Node], slot: int, extras: dict
    ) -> None:
        self.node = node
        self.neighbor_ids = neighbor_ids
        self.slot = slot
        self.extras = extras

    rng = _LineContext.rng


class _LineEngine(Engine):
    """The engine driven along the line: it copies the due undetermined
    programs before each slot's pass and decides the transmitters' χ
    before the slot resolves."""

    _context_type = _LineContext

    def __init__(self, n: int, graph: Graph, programs: Mapping[Node, NodeProgram]) -> None:
        super().__init__(graph, programs, initiators={0})
        if not self._sleepy:  # every program due every slot
            self._sleepy = True
            self._init_schedule({})
        self.line = _Line(n, self.graph, self._has_received)
        for ctx in self._contexts.values():
            ctx.line = self.line
        # Each program class's attribute names, read from its first
        # copied instance; the programs copied, by id.
        self._names: dict[type, tuple[str, ...]] = {}
        self._copied: dict[int, NodeProgram] = {}

    def _sleepy_slot(self) -> bool:
        line = self.line
        line.slot = slot = self.slot
        undetermined = line.undetermined
        if undetermined:
            due_at = self._due_at
            line.snapshots = {
                node: (self._copy(program), copy.deepcopy(ctx.extras) if ctx.extras else {})
                for _index, (node, program, ctx) in self._buckets.get(slot, ())
                if node in undetermined and due_at.get(node) == slot
            }
        return super()._sleepy_slot()

    def _lean_resolve(
        self, messages: dict[Node, Any], receivers: list[Entry], sleepy: bool = True
    ) -> None:
        self._settle(messages, receivers)
        super()._lean_resolve(messages, receivers, sleepy)

    def _fault_resolve(self, messages: dict[Node, Any], receivers: list[Entry]) -> None:
        # Only an observed run (REPRO_PROVENANCE) resolves here.
        self._settle(messages, receivers)
        super()._fault_resolve(messages, receivers)

    def _settle(self, messages: dict[Node, Any], receivers: list[Entry]) -> None:
        """Decide this slot's transmitters' χ, then prove the slot's
        branch settles: completion is this slot for every S on it."""
        line = self.line
        undetermined = line.undetermined
        for node in messages:
            if node in undetermined and line.decide(node):
                line.branch = (node, None)
        line.snapshots = {}  # reads from here on come after the intents
        if line.branch is None:
            return
        node, snapshot = line.branch
        line.branch = None
        slot, sink = self.slot, line.sink
        # No other node is in the branch's S yet, so its transmission,
        # if any, is the only one the sink can hear.
        if snapshot is None:
            transmits = True
        else:
            program, extras = snapshot
            ctx = _BranchContext(node, frozenset({0, sink}), slot, extras)
            transmits = not program.is_done(ctx) and isinstance(program.act(ctx), Transmit)
        uninformed = self.graph.num_nodes() - 1 - len(self._has_received)
        if not transmits:
            why = "it does not transmit"
        elif not (sink in self._listening or any(e[0] == sink for e in receivers)):
            why = "the sink is not listening"
        elif uninformed:
            why = f"{uninformed} other node(s) are still uninformed"
        else:
            return
        raise ExperimentError(
            f"node {node!r}'s χ = 1 branch does not settle at slot {slot}: {why}; "
            "the C_n search cannot prove the worst case of this protocol"
        )

    def _copy(self, program: NodeProgram) -> NodeProgram:
        """``program``'s state, for a branch: immutable attribute values
        shared, the rest deep-copied.

        Reading an instance's ``__dict__`` turns its attribute values
        into a dict for good, and the specialized attribute loads of the
        engine and the programs then miss on it.  So only a class's
        first copied instance is read that way, for the class's names;
        :meth:`check_copies` proves after the run that no copied program
        had another attribute.  ``__slots__`` are copied too, so an
        attribute-forwarding proxy is.
        """
        cls = type(program)
        names = self._names.get(cls)
        if names is None:
            names = self._names[cls] = _attribute_names(program)
        memo: dict[int, Any] = {}
        twin = object.__new__(cls)
        for name in names:
            try:
                value = object.__getattribute__(program, name)
            except AttributeError:
                continue  # not set on this instance
            if type(value) not in _SHARED:
                value = copy.deepcopy(value, memo)
            object.__setattr__(twin, name, value)
        self._copied[id(program)] = program
        return twin

    def check_copies(self) -> None:
        """Refuse the run if a copied program had an attribute its
        class's names lack: its branch may have run on a partial copy."""
        for program in self._copied.values():
            try:
                state = object.__getattribute__(program, "__dict__")
            except AttributeError:
                continue  # slots only: fixed by the class
            extra = state.keys() - self._names[type(program)]
            if extra:
                raise ExperimentError(
                    f"a {type(program).__name__} gained attribute(s) {sorted(extra)} "
                    "after its class's first copy; the C_n search copies the "
                    "attributes it saw then"
                )


#: Attribute values a program's copy shares with the program.
_SHARED = frozenset({bool, int, float, complex, str, bytes, frozenset, type(None)})


def _attribute_names(obj: object) -> tuple[str, ...]:
    """The names of ``obj``'s instance attributes: its ``__dict__`` and
    its ``__slots__``."""
    try:
        names = list(object.__getattribute__(obj, "__dict__"))
    except AttributeError:
        names = []
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names += [
            name
            for name in ((slots,) if isinstance(slots, str) else slots)
            if name not in ("__dict__", "__weakref__")
        ]
    return tuple(names)
