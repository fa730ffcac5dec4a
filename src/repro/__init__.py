"""repro — Bar-Yehuda, Goldreich & Itai (PODC 1987), reproduced in Python.

The paper: *On the Time-Complexity of Broadcast in Multi-Hop Radio
Networks: An Exponential Gap Between Determinism and Randomization.*

Public surface (see README for a guided tour):

* ``repro.graphs`` — graph structures, the paper's ``C_n``/``C*_n``
  families, standard topologies.
* ``repro.sim`` — the synchronous radio model (Definition 1): engine,
  media with/without collision detection, traces, faults.
* ``repro.core`` — Decay and the paper's analytic bounds/schedules.
* ``repro.protocols`` — the randomized Broadcast/BFS/leader-election/
  multi-broadcast protocols and the deterministic baselines.
* ``repro.lowerbound`` — the hitting game, the ``find_set`` adversary,
  and the protocol-to-game reduction behind Theorem 12.
* ``repro.experiments`` — one module per reproduced result (E1–E12).
* ``repro.parallel`` — the process-pool backend for Monte-Carlo
  repetition (``ExperimentConfig(jobs=N)`` / ``REPRO_JOBS``).
* ``repro.campaign`` — what a campaign is for the pool and the
  ``repro.fabric`` workers alike: its plan, journal and splice.

Quick start::

    from repro.graphs import random_gnp
    from repro.protocols import run_decay_broadcast
    import random

    g = random_gnp(64, 0.1, random.Random(7))
    result = run_decay_broadcast(g, source=0, seed=7, epsilon=0.05)
    print(result.broadcast_completion_slot(source=0))
"""

from repro._version import __version__
from repro.errors import ReproError

__all__ = ["__version__", "ReproError"]
