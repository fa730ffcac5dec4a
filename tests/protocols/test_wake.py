"""Sleeping protocols: the engine's wake schedule changes no result.

Round robin, DFS and Decay override ``NodeProgram.wake``, so an
unobserved run (``RadioMedium``, no trace or provenance) calls them only
when they have something to do.  A traced run is observed: it ignores
``wake`` and calls every live program in every slot.  Both must give
the same ``RunResult``, metrics included, with the per-node maps in the
same order.  In test names, the "lean loop" is the untraced run and
the "general loop" the traced one.
"""

import pytest

from repro.graphs import c_n, line, random_gnp
from repro.protocols.aloha import make_aloha_programs
from repro.protocols.base import run_broadcast
from repro.protocols.decay_broadcast import run_decay_broadcast
from repro.protocols.dfs_broadcast import make_dfs_programs
from repro.protocols.round_robin import make_round_robin_programs
from repro.rng import spawn
from repro.sim import Engine

GRAPHS = {
    "c_n-far": c_n(24, {24}),
    "c_n-half": c_n(24, set(range(13, 25))),
    "gnp": random_gnp(30, 0.15, spawn(3, "wake-g")),
    "line": line(12),
}


def _run(protocol, graph, stop, record_trace, wrap=lambda programs: programs):
    n = graph.num_nodes()
    if protocol.startswith("decay"):
        return run_decay_broadcast(
            graph, 0, seed=11, align_phases=protocol == "decay", stop=stop,
            record_trace=record_trace,
        )
    if protocol == "dfs":
        programs, cap = make_dfs_programs(graph, 0), 4 * n + 4
    else:
        max_frames = 2 if protocol == "rr-frames" else None
        programs = make_round_robin_programs(graph, 0, frame_size=n + 1, max_frames=max_frames)
        cap = (n + 1) * 6
    return run_broadcast(
        graph, wrap(programs), initiators={0}, max_slots=cap, stop=stop,
        record_trace=record_trace,
    )


def _fingerprint(result):
    m = result.metrics
    return (
        result.slots,
        m,
        list(m.first_reception.items()),
        list(m.transmissions_per_node.items()),
        list(m.collisions_per_node.items()),
        result.node_results(),
    )


@pytest.mark.parametrize("stop", ["informed", "terminated"])
@pytest.mark.parametrize("graph", list(GRAPHS))
@pytest.mark.parametrize("protocol", ["rr", "rr-frames", "dfs", "decay", "decay-unaligned"])
def test_sleeping_lean_loop_matches_general_loop(protocol, graph, stop):
    g = GRAPHS[graph]
    lean = _run(protocol, g, stop, record_trace=False)
    general = _run(protocol, g, stop, record_trace=True)
    assert lean.trace is None and general.trace is not None
    assert _fingerprint(lean) == _fingerprint(general)


class Proxy:
    """Forwards every attribute but ``act``, which it counts."""

    __slots__ = ("_program", "acts")

    def __init__(self, program):
        self._program = program
        self.acts = 0

    def act(self, ctx):
        self.acts += 1
        return self._program.act(ctx)

    def __getattr__(self, name):
        return getattr(self._program, name)


@pytest.mark.parametrize("protocol", ["rr", "dfs"])
def test_proxied_programs_still_sleep(protocol):
    g = GRAPHS["c_n-half"]
    proxies = {}

    def wrap(programs):
        proxies.update({node: Proxy(p) for node, p in programs.items()})
        return dict(proxies)

    lean = _run(protocol, g, "terminated", record_trace=False, wrap=wrap)
    lean_acts = sum(p.acts for p in proxies.values())
    proxies.clear()
    general = _run(protocol, g, "terminated", record_trace=True, wrap=wrap)
    general_acts = sum(p.acts for p in proxies.values())
    assert 0 < 4 * lean_acts < general_acts
    assert _fingerprint(lean) == _fingerprint(general)
    assert _fingerprint(lean) == _fingerprint(_run(protocol, g, "terminated", False))


def test_programs_without_wake_do_not_sleep():
    g = GRAPHS["gnp"]
    engine = Engine(g, make_aloha_programs(g, 0, 0.3), initiators={0})
    assert not engine._observed and not engine._sleepy
    programs = make_dfs_programs(g, 0)
    assert Engine(g, {n: Proxy(p) for n, p in programs.items()}, initiators={0})._sleepy
