"""Engine and protocol instrumentation: spans, markers, and gating.

Covers the observability contract end-to-end: the engine emits
run/slot-batch/fault records when a recorder is active and nothing at
all otherwise; the protocols emit phase markers (Decay phase index,
BFS layer); and — critically — enabling telemetry never turns on
tracing, and ``record_trace=False`` allocates no :class:`SlotLog`.
"""

import pytest

import repro.sim.engine as engine_mod
from repro.graphs import generators, line, star
from repro.protocols import run_bfs, run_decay_broadcast
from repro.protocols.decay_broadcast import make_broadcast_programs
from repro.sim import (
    Context,
    EdgeFault,
    Engine,
    FaultSchedule,
    NodeProgram,
    Receive,
    Transmit,
)
from repro.telemetry.core import Telemetry, activate, phase, set_active
from repro.telemetry.schema import PHASE_ROW_FIELDS, validate_record
from repro.telemetry.summary import summarize


@pytest.fixture(autouse=True)
def _no_ambient_recorder():
    previous = set_active(None)
    yield
    set_active(previous)


class Beacon(NodeProgram):
    def act(self, ctx: Context):
        return Transmit("b")


class Listener(NodeProgram):
    def act(self, ctx: Context):
        return Receive()


def _engine(graph, **kwargs):
    programs = {}
    for i, node in enumerate(graph.nodes):
        programs[node] = Beacon() if i == 0 else Listener()
    return Engine(graph, programs, initiators={next(iter(graph.nodes))}, **kwargs)


class TestEngineSpans:
    def test_run_begin_and_end_emitted(self):
        rec = Telemetry.buffered()
        with activate(rec):
            engine = _engine(line(4))
        engine.run(10)
        records = rec.drain()
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "run_end"
        assert all(not validate_record(r) for r in records)
        begin = records[0]
        assert begin["nodes"] == 4 and begin["edges"] == 3 and begin["seed"] == 0
        end = records[-1]
        assert end["slots"] == 10
        assert end["transmissions"] == engine.metrics.transmissions
        assert end["run"] == begin["run"] == "r1"

    def test_slot_batch_records_at_interval(self):
        rec = Telemetry.buffered(slot_batch=8)
        engine = _engine(line(3), telemetry=rec)
        engine.run(30)
        records = rec.drain()
        batches = [r for r in records if r["kind"] == "slot_batch"]
        assert len(batches) == 3  # slots 8, 16, 24
        assert [b["slot"] for b in batches] == [8, 16, 24]
        assert all(b["slots"] == 8 for b in batches)
        assert all(b["run"] == "r1" for b in batches)
        assert all(b["slots_per_sec"] >= 0 for b in batches)
        assert [r["kind"] for r in records] == [
            "run_begin", "slot_batch", "slot_batch", "slot_batch", "run_end"]
        assert all(not validate_record(r) for r in records)

    def test_explicit_recorder_beats_ambient(self):
        ambient = Telemetry.buffered()
        explicit = Telemetry.buffered()
        with activate(ambient):
            engine = _engine(line(3), telemetry=explicit)
        engine.run(4)
        assert ambient.drain() == []
        assert any(r["kind"] == "run_end" for r in explicit.drain())

    def test_snapshotted_at_construction(self):
        rec = Telemetry.buffered()
        engine = _engine(line(3))  # no ambient recorder here
        with activate(rec):
            engine.run(4)  # activating later must not retrofit the engine
        assert rec.drain() == []

    def test_fault_events(self):
        rec = Telemetry.buffered()
        schedule = FaultSchedule(edge_faults=[EdgeFault(slot=2, u=0, v=1)])
        engine = _engine(line(4), faults=schedule, telemetry=rec)
        engine.run(6)
        faults = [r for r in rec.drain() if r["kind"] == "fault"]
        assert len(faults) == 1
        assert faults[0]["slot"] == 2
        assert faults[0]["edges_cut"] == 1
        assert not validate_record(faults[0])

    def test_run_that_raises_leaves_no_open_scope(self):
        # A program raises mid-run: no run_end is written (the monitor
        # would judge it a failed run), later records carry no run id,
        # a later marker outside any run is written, not folded into the
        # dead run, and its markers never reach a later run's rows.
        class Faulty(NodeProgram):
            def act(self, ctx: Context):
                phase("probe", node=ctx.node, index=0, slot=ctx.slot)
                if ctx.slot == 20:
                    raise RuntimeError("program fault")
                return Transmit("b") if ctx.node == 0 else Receive()

        rec = Telemetry.buffered()
        graph = line(3)
        engine = Engine(graph, {node: Faulty() for node in graph.nodes},
                        initiators={0}, telemetry=rec)
        with activate(rec), pytest.raises(RuntimeError, match="program fault"):
            engine.run(100)
        assert rec.current_run is None
        rec.emit("chaos_trial", arm="decay", seed=1, success=False)
        rec.phase("probe", node=1, index=0, slot=3)
        rec.begin_run(nodes=1, edges=0, seed=0)
        rec.phase("probe", node=0, index=0, slot=7)
        rec.end_run(slots=8, wall_s=0.0, transmissions=0, collisions=0, deliveries=0)
        records = rec.drain()
        assert [r["kind"] for r in records] == [
            "run_begin", "chaos_trial", "phase", "run_begin", "run_end"]
        assert "run" not in records[1] and "run" not in records[2]
        assert records[-1]["run"] == "r2"
        assert records[-1]["phases"] == [["probe", 0, 1, 7, 7, 7, 0, 0]]

    def test_collisions_per_node_mirrors_total(self):
        # Star center hears every leaf: collisions are inevitable.
        rec = Telemetry.buffered()
        g = star(6)
        programs = {node: Beacon() for node in g.nodes}
        programs[0] = Listener()
        engine = Engine(g, programs, initiators=set(g.nodes) - {0}, telemetry=rec)
        engine.run(5)
        metrics = engine.metrics
        assert metrics.collisions > 0
        assert sum(metrics.collisions_per_node.values()) == metrics.collisions
        end = [r for r in rec.drain() if r["kind"] == "run_end"][0]
        assert end["collisions"] == metrics.collisions


class TestTraceGating:
    def test_no_slot_records_without_tracing(self, monkeypatch):
        """record_trace=False must never allocate a slot log."""

        def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("SlotLog allocated with record_trace=False")

        monkeypatch.setattr(engine_mod, "SlotLog", _forbidden)
        engine = _engine(line(4), record_trace=False)
        result = engine.run(10)
        assert result.trace is None

    def test_telemetry_does_not_enable_tracing(self, monkeypatch):
        """An active recorder must not implicitly turn the trace on."""

        def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("telemetry implicitly enabled tracing")

        monkeypatch.setattr(engine_mod, "SlotLog", _forbidden)
        rec = Telemetry.buffered()
        with activate(rec):
            result = run_decay_broadcast(line(5), 0, seed=1)
        assert result.trace is None
        assert any(r["kind"] == "run_end" for r in rec.drain())

    def test_tracing_still_works_with_telemetry(self):
        rec = Telemetry.buffered()
        with activate(rec):
            result = run_decay_broadcast(line(4), 0, seed=1, record_trace=True)
        assert result.trace is not None
        assert len(result.trace) == result.slots

    def test_disabled_telemetry_emits_nothing(self):
        engine = _engine(line(4))
        assert engine._telemetry is None
        engine.run(10)  # would raise if it touched a recorder


class TestProtocolPhaseMarkers:
    def test_decay_broadcast_markers(self):
        rec = Telemetry.buffered()
        with activate(rec):
            result = run_decay_broadcast(generators.ring(8), 0, seed=3)
        records = rec.drain()
        assert not [r for r in records if r["kind"] == "phase"]
        end = next(r for r in records if r["kind"] == "run_end")
        assert not validate_record(end)
        rows = [dict(zip(PHASE_ROW_FIELDS, row)) for row in end["phases"]]
        assert rows, "no phase markers folded"
        assert {row["proto"] for row in rows} == {"decay-broadcast"}
        k = next(iter(result.programs.values())).k
        for row in rows:
            # Aligned phases: each Decay spans exactly k slots.
            assert row["length_count"] == row["count"]
            assert row["length_sum"] == k * row["count"]
            assert row["slot_min"] <= row["slot_sum"] / row["count"] <= row["slot_max"]
        # The source starts at phase index 0 in slot k-1.
        indices = sorted(row["index"] for row in rows)
        assert indices[0] == 0
        assert len(indices) == len(set(indices))

    def test_bfs_markers_cover_decays_and_layers(self):
        rec = Telemetry.buffered()
        with activate(rec):
            result = run_bfs(generators.grid(3, 3), 0, seed=2)
        (end,) = [r for r in rec.drain() if r["kind"] == "run_end"]
        assert not validate_record(end)
        rows = [dict(zip(PHASE_ROW_FIELDS, row)) for row in end["phases"]]
        decays = [row for row in rows if row["proto"] == "decay-bfs"]
        layers = [row for row in rows if row["proto"] == "bfs-layer"]
        assert decays and layers
        # Layer markers carry no start_slot, so no length is folded.
        assert all(row["length_count"] == row["length_sum"] == 0 for row in layers)
        labels = result.node_results()
        # One bfs-layer marker per node that labelled itself (non-root).
        labelled = [n for n, d in labels.items() if d is not None and n != 0]
        assert sum(row["count"] for row in layers) == len(labelled)
        assert {row["index"] for row in layers} == {labels[n] for n in labelled}

    def test_markers_outside_a_run_are_records_and_fold_the_same(self):
        # Engine.step opens no run, so its markers are written one by
        # one; Engine.run folds the same markers into run_end.  The
        # summary reads both forms into the same rows.
        def engine():
            graph = generators.ring(12)
            programs, _ = make_broadcast_programs(graph, {0})
            return Engine(graph, programs, seed=3, initiators=frozenset({0}))

        folded, stepped = Telemetry.buffered(), Telemetry.buffered()
        with activate(folded):
            slots = engine().run(10_000).slots
        with activate(stepped):
            stepping = engine()
            stepping.run(0)  # on_start only
            for _ in range(slots):
                stepping.step()
        folded_records, stepped_records = folded.drain(), stepped.drain()
        markers = [r for r in stepped_records if r["kind"] == "phase"]
        assert markers and all(not validate_record(r) for r in markers)
        assert not [r for r in folded_records if r["kind"] == "phase"]
        assert not any("phases" in r for r in stepped_records if r["kind"] == "run_end")
        rows = summarize(folded_records)["phases"]
        assert rows["decay-broadcast"]
        assert rows == summarize(stepped_records)["phases"]

    def test_markers_silent_without_recorder(self):
        result = run_decay_broadcast(generators.ring(6), 0, seed=3)
        assert result.broadcast_completion_slot(source=0) is not None
