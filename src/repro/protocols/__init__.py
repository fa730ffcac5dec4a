"""Protocols runnable on the simulation engine.

Randomized (the paper's contribution):

* :mod:`repro.protocols.decay_broadcast` — Section 2.2's Broadcast.
* :mod:`repro.protocols.decay_bfs` — Section 2.3's BFS.
* :mod:`repro.protocols.leader_election` — Decay-based leader election
  (the [BGI89] application sketched in Section 2.3).

Deterministic baselines (the other side of the gap):

* :mod:`repro.protocols.dfs_broadcast` — DFS token traversal
  (Section 3.4's ``2n`` upper bound).
* :mod:`repro.protocols.round_robin` — ID-indexed TDMA.
* :mod:`repro.protocols.scheduled` — replay of a centralized schedule.

Other comparators:

* :mod:`repro.protocols.aloha` — p-persistent transmission.
* :mod:`repro.protocols.cd_protocols` — collision-detection protocols
  (Section 4 remark; related-work tree splitting).
"""

from repro.protocols.aloha import AlohaBroadcastProgram, make_aloha_programs
from repro.protocols.base import run_broadcast
from repro.protocols.cd_protocols import (
    FourSlotCnProgram,
    TreeSplittingProgram,
    make_four_slot_cn_programs,
    make_tree_splitting_programs,
)
from repro.protocols.decay_bfs import DecayBFSProgram, make_bfs_programs, run_bfs
from repro.protocols.decay_broadcast import (
    DecayBroadcastProgram,
    make_broadcast_programs,
    run_decay_broadcast,
)
from repro.protocols.dfs_broadcast import DFSBroadcastProgram, make_dfs_programs
from repro.protocols.leader_election import LeaderElectionProgram, run_leader_election
from repro.protocols.round_robin import RoundRobinProgram, make_round_robin_programs
from repro.protocols.scheduled import ScheduledProgram, make_scheduled_programs

__all__ = [
    "run_broadcast",
    "DecayBroadcastProgram",
    "make_broadcast_programs",
    "run_decay_broadcast",
    "DecayBFSProgram",
    "make_bfs_programs",
    "run_bfs",
    "DFSBroadcastProgram",
    "make_dfs_programs",
    "RoundRobinProgram",
    "make_round_robin_programs",
    "ScheduledProgram",
    "make_scheduled_programs",
    "AlohaBroadcastProgram",
    "make_aloha_programs",
    "FourSlotCnProgram",
    "make_four_slot_cn_programs",
    "TreeSplittingProgram",
    "make_tree_splitting_programs",
    "LeaderElectionProgram",
    "run_leader_election",
]
