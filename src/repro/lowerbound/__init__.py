"""The deterministic lower bound machinery (paper Section 3).

The paper reduces broadcast on the network class ``C_n`` to the
**hitting game** (Definition 5) via three lemmas, then defeats every
explorer strategy of fewer than ``n/2`` moves with the ``find_set``
adversary, yielding the ``Ω(n)`` time bound (Theorem 12).

* :mod:`repro.lowerbound.hitting_game` — the game and its referee.
* :mod:`repro.lowerbound.adversary` — ``find_set`` plus the
  oblivious-strategy foiling pipeline.
* :mod:`repro.lowerbound.strategies` — a suite of explorer strategies.
* :mod:`repro.lowerbound.reduction` — abstract broadcast protocols on
  ``C_n`` and their compilation into explorer strategies (Lemma 7).
"""
