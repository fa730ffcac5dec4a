"""Deterministic DFS token broadcast — the paper's ``2n`` upper bound.

Section 3.4: *"it is easy to see that one may reach all n processors in
a network within 2n time-slots, by having the current transmitter
traverse the network in a Depth-First-Search manner."*

The token is a message carrying the global set of visited nodes; at any
slot exactly one processor (the token holder) transmits, so collisions
never occur and every neighbour of the holder receives.  The holder
picks its smallest unvisited neighbour as the next holder, or returns
the token to its DFS parent when none remain.  Each DFS-tree edge is
traversed at most twice, so the traversal uses at most ``2(n - 1)``
slots — within the paper's ``2n``.

This protocol is deterministic and *requires* unique, ordered IDs and
the Definition-1 initial input (each node knows its neighbours' IDs) —
exactly the model of the lower-bound section.  It is the matching
upper bound for Theorem 12 and one of the two deterministic comparators
in the exponential-gap experiment (E5).
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.graphs.graph import Graph
from repro.protocols.base import ordered_nodes
from repro.sim.medium import COLLISION, SILENCE
from repro.sim.node import IDLE, RECEIVE, Context, Intent, NodeProgram, Transmit

__all__ = ["DFSBroadcastProgram", "make_dfs_programs"]

Node = Hashable

_TOKEN = "dfs-token"

#: ``(mine, theirs, mine | theirs)`` of the last union taken.  Every
#: hearer of one token usually holds the same ``visited`` set, so the
#: O(|visited|) subset test runs once per token, not once per hearer.
#: The memo holds both operands, so neither id can be reused while the
#: identity test below can still match it.  It is a pure cache: a hit
#: returns the value the union would, whoever asks, and the memo is read
#: and replaced as one tuple.
_union_memo: tuple[Any, Any, frozenset[Node]] = (None, None, frozenset())


def _union(mine: frozenset[Node], theirs: frozenset[Node]) -> frozenset[Node]:
    """``mine | theirs``; on the common path the token's set already
    contains ours, so it is kept, not copied."""
    global _union_memo
    memo = _union_memo
    if memo[0] is mine and memo[1] is theirs:
        return memo[2]
    union = theirs if mine <= theirs else mine | theirs
    _union_memo = (mine, theirs, union)
    return union


class DFSBroadcastProgram(NodeProgram):
    """Per-node logic of the DFS token traversal.

    Message format: ``(_TOKEN, target, visited, sender, payload)`` where
    ``visited`` is a frozenset of already-visited node IDs (including
    the sender) and ``target`` is the node designated as next holder.
    """

    def __init__(self, *, is_source: bool = False, payload: Any = "m") -> None:
        self.is_source = is_source
        self.payload = payload
        self.has_token = is_source
        self.parent: Node | None = None
        self.visited: frozenset[Node] = frozenset()
        self._done = False

    def act(self, ctx: Context) -> Intent:
        if self._done:
            return IDLE
        if not self.has_token:
            return RECEIVE
        visited = frozenset(self.visited | {ctx.node})
        unvisited = ordered_nodes(
            nbr for nbr in ctx.neighbor_ids if nbr not in visited
        )
        if unvisited:
            target = unvisited[0]
            self.visited = visited
            self.has_token = False
            return Transmit((_TOKEN, target, visited, ctx.node, self.payload))
        if self.parent is not None:
            self.visited = visited
            self.has_token = False
            self._done = True  # a node never receives the token again after backtracking
            return Transmit((_TOKEN, self.parent, visited, ctx.node, self.payload))
        # Source with nothing left to visit: traversal complete.
        self._done = True
        return IDLE

    def on_observe(self, ctx: Context, heard: Any) -> None:
        if heard is SILENCE or heard is COLLISION:
            return
        if not (isinstance(heard, tuple) and heard and heard[0] == _TOKEN):
            return
        _tag, target, visited, sender, _payload = heard
        self.visited = _union(self.visited, visited)
        if target == ctx.node:
            self.has_token = True
            self._done = False  # a backtrack returns the token to us
            if self.parent is None and not self.is_source and ctx.node not in visited:
                self.parent = sender

    def is_done(self, ctx: Context) -> bool:
        return self._done

    def wake(self, ctx: Context) -> int | None:
        """Without the token: only when the token arrives.  (A source
        that finishes keeps the token, so it is polled done next slot.)"""
        return ctx.slot + 1 if self.has_token else None

    def result(self) -> dict[str, Any]:
        return {"visited_count": len(self.visited), "parent": self.parent}


def make_dfs_programs(graph: Graph, source: Node, *, payload: Any = "m") -> dict[Node, DFSBroadcastProgram]:
    """One DFS program per node of ``graph``; ``source`` starts with the token."""
    return {
        node: DFSBroadcastProgram(is_source=(node == source), payload=payload)
        for node in graph.nodes
    }
