"""Causal slot provenance: opt-in recording, outcomes, explanations."""

from typing import Any

from repro.graphs import line, star
from repro.sim import (
    Context,
    CrashFault,
    Engine,
    FaultSchedule,
    JamFault,
    LinkLossFault,
    NodeProgram,
    Receive,
    Transmit,
)
from repro.sim.trace import (
    COLLISION,
    DELIVERED,
    FAULT_SUPPRESSED,
    OUTCOMES,
    SILENCE,
    explain_entry,
    explain_missing,
)
from repro.telemetry.core import Telemetry


class Beacon(NodeProgram):
    def __init__(self, message: Any = "b") -> None:
        self.message = message

    def act(self, ctx: Context) -> Any:
        return Transmit(self.message)


class Listener(NodeProgram):
    def act(self, ctx: Context) -> Any:
        return Receive()


def prov_run(graph, programs, initiators, slots, *, faults=None, seed=0):
    engine = Engine(
        graph, programs, initiators=initiators, faults=faults, seed=seed,
        record_provenance=True,
    )
    result = engine.run(slots)
    assert result.provenance is not None
    return result.provenance


class TestGating:
    def test_off_by_default_no_recorder(self):
        engine = Engine(line(2), {0: Beacon(), 1: Listener()}, initiators={0})
        assert engine._prov is None
        assert engine.run(2).provenance is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVENANCE", "1")
        engine = Engine(line(2), {0: Beacon(), 1: Listener()}, initiators={0})
        assert engine._prov is not None

    def test_env_var_zero_stays_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROVENANCE", "0")
        engine = Engine(line(2), {0: Beacon(), 1: Listener()}, initiators={0})
        assert engine._prov is None

    def test_metrics_identical_with_and_without(self):
        def run(record):
            engine = Engine(
                line(3),
                {0: Beacon("m"), 1: Listener(), 2: Listener()},
                initiators={0},
                record_provenance=record,
            )
            return engine.run(4).metrics

        on, off = run(True), run(False)
        assert on.first_reception == off.first_reception
        assert on.transmissions == off.transmissions
        assert on.collisions == off.collisions
        assert on.deliveries == off.deliveries


class TestOutcomes:
    def test_delivery_records_lone_transmitter(self):
        prov = prov_run(line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1)
        entry = prov.get(1, 0)
        assert entry is not None
        assert entry.outcome == DELIVERED
        assert entry.transmitters == (0,)

    def test_collision_records_transmitter_set(self):
        prov = prov_run(
            star(2), {0: Listener(), 1: Beacon("a"), 2: Beacon("b")}, {1, 2}, 1
        )
        entry = prov.get(0, 0)
        assert entry.outcome == COLLISION
        assert sorted(entry.transmitters) == [1, 2]

    def test_silence_when_nobody_transmits(self):
        prov = prov_run(line(2), {0: Listener(), 1: Listener()}, set(), 1)
        assert prov.get(0, 0).outcome == SILENCE
        assert prov.get(1, 0).outcome == SILENCE

    def test_jam_suppression(self):
        # 1 transmits to 0, but 2 (also audible to 0) jams.
        faults = FaultSchedule(jam_faults=[JamFault(node=2, start=0, end=2)])
        prov = prov_run(
            star(2), {0: Listener(), 1: Beacon("m"), 2: Listener()}, {1}, 1,
            faults=faults,
        )
        entry = prov.get(0, 0)
        assert entry.outcome in (FAULT_SUPPRESSED, COLLISION)
        if entry.outcome == FAULT_SUPPRESSED:
            assert entry.detail == "jamming"

    def test_crash_suppression(self):
        faults = FaultSchedule(crash_faults=[CrashFault(slot=0, node=1)])
        prov = prov_run(
            line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1, faults=faults
        )
        entry = prov.get(1, 0)
        assert entry.outcome == FAULT_SUPPRESSED
        assert entry.detail == "crashed"

    def test_link_loss_suppression(self):
        faults = FaultSchedule(link_loss_faults=[LinkLossFault(p=1.0)])
        prov = prov_run(
            line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1, faults=faults
        )
        entry = prov.get(1, 0)
        assert entry.outcome == FAULT_SUPPRESSED
        assert entry.detail == "link-loss"
        assert entry.transmitters == (0,)

    def test_all_outcomes_are_known(self):
        prov = prov_run(
            star(2), {0: Listener(), 1: Beacon("a"), 2: Beacon("b")}, {1, 2}, 2
        )
        for entry in prov:
            assert entry.outcome in OUTCOMES


class TestRecorderApi:
    def test_note_and_len(self):
        # One entry per listening node per slot: 1 is delivered 0's
        # message, 2 hears only the listening 1.
        prov = prov_run(line(3), {0: Beacon("m"), 1: Listener(), 2: Listener()}, {0}, 2)
        assert len(prov) == 4
        assert prov.get(1, 0).transmitters == (0,)
        assert prov.get(2, 1).outcome == SILENCE
        assert prov.get(0, 0) is None  # a transmitter is not listening

    def test_for_node_is_slot_ordered(self):
        prov = prov_run(
            star(3), {0: Listener(), 1: Beacon("a"), 2: Listener(), 3: Listener()}, {1}, 4
        )
        entries = prov.for_node(2)
        assert [e.slot for e in entries] == [0, 1, 2, 3]
        assert {e.node for e in entries} == {2}

    def test_note_forwards_to_telemetry(self):
        def prov_events(record_trace, record_provenance):
            telemetry = Telemetry.buffered()
            engine = Engine(
                star(2), {0: Listener(), 1: Beacon("a"), 2: Beacon("b")},
                initiators={1, 2}, telemetry=telemetry,
                record_trace=record_trace, record_provenance=record_provenance,
            )
            engine.run(1)
            return [
                {key: r[key] for key in ("slot", "node", "outcome", "tx", "detail") if key in r}
                for r in telemetry.drain() if r["kind"] == "prov"
            ]

        [event] = prov_events(False, True)
        assert sorted(event.pop("tx")) == [1, 2]
        assert event == {"slot": 0, "node": 0, "outcome": COLLISION}
        # A trace alone logs the same entries but emits no prov event.
        assert prov_events(True, False) == []


class TestExplain:
    def test_delivered_sentence(self):
        text = explain_entry("v", 3, DELIVERED, ("u",))
        assert "RECEIVED" in text and "only audible transmitter" in text

    def test_collision_sentence_counts_transmitters(self):
        text = explain_entry("v", 3, COLLISION, ("a", "b", "c"))
        assert "COLLISION" in text and "3 audible neighbours" in text

    def test_silence_sentence(self):
        assert "SILENCE" in explain_entry("v", 3, SILENCE, ())

    def test_fault_sentence_names_cause(self):
        text = explain_entry("v", 3, FAULT_SUPPRESSED, ("u",), "jamming")
        assert "FAULT" in text and "jamming" in text

    def test_recorder_explain_missing(self):
        prov = prov_run(line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1)
        assert prov.explain(0, 0) == explain_missing(0, 0)  # transmitting
        assert prov.explain(1, 9) == explain_missing(1, 9)  # never executed

    def test_engine_run_explains_delivery(self):
        prov = prov_run(line(2), {0: Beacon("m"), 1: Listener()}, {0}, 1)
        assert "RECEIVED" in prov.explain(1, 0)
