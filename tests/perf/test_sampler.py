"""The sampling profiler: lifecycle, span attribution, traced memory."""

import threading
import time

import pytest

from repro.perf import PerfSession, Sampler, hz_from_env, parse_folded
from repro.perf import core as perf_core
from repro.perf.sampler import _SPANS


def _spin(seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    ticks = 0
    while time.perf_counter() < deadline:
        ticks += 1
    return ticks


class TestSamplerLifecycle:
    def test_start_is_idempotent(self):
        sampler = Sampler(500.0)
        sampler.start()
        first_thread = sampler._thread
        sampler.start()  # no-op: same thread keeps running
        assert sampler._thread is first_thread
        sampler.stop()
        assert not sampler.running

    def test_stop_is_idempotent_and_without_start_a_noop(self):
        sampler = Sampler(500.0)
        sampler.stop()  # never started
        assert sampler.wall_s == 0.0
        sampler.start()
        _spin(0.02)
        sampler.stop()
        wall = sampler.wall_s
        assert wall > 0.0
        sampler.stop()  # second stop must not double-count wall time
        assert sampler.wall_s == wall

    def test_restart_accumulates(self):
        sampler = Sampler(500.0)
        for _ in range(2):
            sampler.start()
            _spin(0.02)
            sampler.stop()
        assert sampler.wall_s >= 0.03

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            Sampler(0)

    def test_collects_stacks_from_working_threads(self):
        sampler = Sampler(500.0)
        sampler.start()
        _spin(0.1)
        sampler.stop()
        assert sampler.samples > 0
        assert sum(sampler.counts.values()) == sampler.samples
        assert any("test_sampler.py:_spin" in stack for stack in sampler.counts)

    def test_folded_text_roundtrips(self):
        sampler = Sampler(500.0)
        sampler.start()
        _spin(0.05)
        sampler.stop()
        parsed = parse_folded(sampler.folded_text())
        assert parsed == sampler.counts


class TestSpanAccounting:
    def test_push_pop_clears_registry(self):
        session = PerfSession(200.0, memory=False).start()
        try:
            tid = threading.get_ident()
            session.span_push("outer")
            session.span_push("inner")
            assert _SPANS[tid] == ("outer", "inner")
            session.span_pop()
            session.span_pop()
            assert tid not in _SPANS
        finally:
            session.stop()

    def test_samples_attributed_to_innermost_label(self):
        session = PerfSession(500.0, memory=False).start()
        try:
            session.span_push("hot.work")
            _spin(0.1)
            session.span_pop()
        finally:
            session.stop()
        rows = {row["label"]: row for row in session.span_table()}
        assert rows["hot.work"]["samples"] > 0
        assert rows["hot.work"]["secs"] == pytest.approx(0.1, rel=0.5)
        assert any(stack.startswith("hot.work;") for stack in session.counts)

    def test_traced_memory_peak(self):
        session = PerfSession(200.0, memory=True).start()
        try:
            session.span_push("alloc")
            blob = bytearray(4 * 1024 * 1024)
            del blob
            session.span_pop()
        finally:
            session.stop()
        rows = {row["label"]: row for row in session.span_table()}
        assert rows["alloc"]["mem_peak_kb"] >= 4000.0

    def test_nested_spans_keep_parent_peak(self):
        session = PerfSession(200.0, memory=True).start()
        try:
            session.span_push("parent")
            session.span_push("child")
            blob = bytearray(2 * 1024 * 1024)
            del blob
            session.span_pop()
            session.span_pop()
        finally:
            session.stop()
        rows = {row["label"]: row for row in session.span_table()}
        # The fold-then-reset_peak discipline must credit the child's
        # allocation to the parent window too.
        assert rows["parent"]["mem_peak_kb"] >= rows["child"]["mem_peak_kb"]
        assert rows["child"]["mem_peak_kb"] >= 2000.0

    def test_stop_closes_leftover_spans(self):
        session = PerfSession(200.0, memory=False).start()
        session.span_push("left.open")
        session.stop()
        assert threading.get_ident() not in _SPANS
        rows = {row["label"]: row for row in session.span_table()}
        assert rows["left.open"]["count"] == 1

    def test_session_start_stop_idempotent(self):
        session = PerfSession(200.0, memory=False)
        assert session.start() is session.start()
        session.stop()
        session.stop()
        assert not session.running

    def test_emit_writes_schema_valid_records(self):
        from repro.telemetry import Telemetry
        from repro.telemetry.schema import validate_record

        session = PerfSession(500.0, memory=False).start()
        session.span_push("work")
        _spin(0.05)
        session.span_pop()
        session.stop()
        recorder = Telemetry.buffered()
        session.emit(recorder)
        records = recorder.drain()
        kinds = [record["kind"] for record in records]
        assert kinds.count("perf_profile") == 1
        assert "perf_span" in kinds
        assert all(not validate_record(record) for record in records)

    def test_emit_caps_stacks(self):
        session = PerfSession(500.0, memory=False)
        session.sampler.counts = {f"frame:{i}": i + 1 for i in range(50)}
        session.sampler.samples = sum(session.sampler.counts.values())

        class Sink:
            def __init__(self):
                self.records = []

            def emit(self, kind, **fields):
                self.records.append({"kind": kind, **fields})

        sink = Sink()
        session.emit(sink, top_stacks=10)
        profile = next(r for r in sink.records if r["kind"] == "perf_profile")
        assert len(profile["stacks"]) == 10
        assert profile["stacks_dropped"] == 40
        # Heaviest stacks survive the cap.
        assert "frame:49" in profile["stacks"]


class TestAmbientRegistry:
    def test_helpers_are_noops_without_session(self):
        assert perf_core.get_active() is None
        perf_core.span_push("nobody.listening")
        perf_core.span_pop()
        assert threading.get_ident() not in _SPANS
        with perf_core.perf_span("still.nobody"):
            pass

    def test_activate_restores_previous(self):
        outer = PerfSession(200.0, memory=False)
        with perf_core.activate(outer):
            assert perf_core.get_active() is outer
            inner = PerfSession(200.0, memory=False)
            with perf_core.activate(inner):
                assert perf_core.get_active() is inner
            assert perf_core.get_active() is outer
        assert perf_core.get_active() is None

    def test_sampler_survives_concurrent_telemetry_activation(self):
        """Telemetry recorders churning in another thread must not
        disturb a running perf session (independent registries)."""
        from repro.telemetry import Telemetry
        from repro.telemetry import activate as tel_activate

        session = PerfSession(500.0, memory=False)
        errors = []

        def churn():
            try:
                for _ in range(25):
                    recorder = Telemetry.buffered()
                    with recorder, tel_activate(recorder):
                        with perf_core.perf_span("tel.window"):
                            _spin(0.004)
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        with perf_core.activate(session):
            worker = threading.Thread(target=churn)
            worker.start()
            _spin(0.05)
            worker.join()
        assert not errors
        assert session.sampler.samples > 0
        # The worker thread's spans land in the one ambient session.
        labels = {row["label"] for row in session.span_table()}
        assert "tel.window" in labels
        assert not _SPANS


class TestEnvGate:
    def test_unset_means_off(self):
        assert hz_from_env({}) is None
        assert hz_from_env({"REPRO_PERF": ""}) is None
        assert hz_from_env({"REPRO_PERF": "0"}) is None

    def test_numeric_value_is_hz(self):
        assert hz_from_env({"REPRO_PERF": "250"}) == 250.0

    def test_non_numeric_truthy_falls_back_to_default(self):
        assert hz_from_env({"REPRO_PERF": "yes"}) == 97.0

    def test_to_env_roundtrips(self):
        env: dict = {}
        PerfSession(123.0).to_env(env)
        assert hz_from_env(env) == 123.0
