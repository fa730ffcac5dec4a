"""Distributed trace context: derivation, propagation, stamping."""

from repro.fabric.tracectx import ENV_TRACE_ID, ENV_TRACE_PARENT, TraceContext
from repro.telemetry import Telemetry


class TestDerivation:
    def test_ids_are_deterministic(self):
        # Load-bearing: a resumed campaign must land in the same trace
        # as its first attempt, and replayed drills must be byte-stable.
        a = TraceContext.root("fingerprint-abc")
        b = TraceContext.root("fingerprint-abc")
        assert a == b
        assert a.trace_id == b.trace_id
        assert len(a.trace_id) == 16

    def test_different_campaigns_get_different_traces(self):
        assert (
            TraceContext.root("campaign-1").trace_id
            != TraceContext.root("campaign-2").trace_id
        )

    def test_child_shares_trace_and_chains_parentage(self):
        root = TraceContext.root("camp")
        worker = root.child("worker w0")
        lease = worker.child("chunk 3")
        assert worker.trace_id == root.trace_id == lease.trace_id
        assert worker.parent_id == root.span_id
        assert lease.parent_id == worker.span_id
        assert len({root.span_id, worker.span_id, lease.span_id}) == 3

    def test_no_rng_consumed(self):
        # Seed purity: deriving ids must not draw from any RNG stream.
        import random

        state = random.getstate()
        TraceContext.root("camp").child("worker w0").child("chunk 0")
        assert random.getstate() == state


class TestEnvPropagation:
    def test_round_trip_through_env(self):
        root = TraceContext.root("camp")
        env: dict[str, str] = {}
        root.to_env(env)
        assert env == {
            ENV_TRACE_ID: root.trace_id,
            ENV_TRACE_PARENT: root.span_id,
        }
        rebuilt = TraceContext.from_env("worker w0", env)
        assert rebuilt is not None
        assert rebuilt.trace_id == root.trace_id
        assert rebuilt.parent_id == root.span_id
        # The rebuilt span is the same one the coordinator would derive.
        assert rebuilt.span_id == root.child("worker w0").span_id

    def test_from_env_without_trace_is_none(self):
        # A stand-alone worker launch: stamping stays strictly off.
        assert TraceContext.from_env("worker w0", {}) is None
        assert TraceContext.from_env("worker w0", {ENV_TRACE_ID: ""}) is None

    def test_to_env_returns_fresh_dict_when_none_given(self):
        env = TraceContext.root("camp").to_env()
        assert set(env) == {ENV_TRACE_ID, ENV_TRACE_PARENT}


class TestStamping:
    def test_stamp_adds_identity(self):
        context = TraceContext.root("camp").child("worker w0")
        record = {"kind": "run_end"}
        context.stamp(record)
        assert record["trace"] == context.trace_id
        assert record["span"] == context.span_id
        assert record["parent"] == context.parent_id

    def test_root_span_has_no_parent_field(self):
        record = {"kind": "fabric_begin"}
        TraceContext.root("camp").stamp(record)
        assert "parent" not in record

    def test_prestamped_records_keep_their_span(self):
        # Worker records shipped back to the coordinator must stay
        # attributable to the worker's span, not the coordinator's.
        coordinator = TraceContext.root("camp")
        worker = coordinator.child("worker w0")
        record = {"kind": "run_end"}
        worker.stamp(record)
        coordinator.stamp(record)
        assert record["span"] == worker.span_id
        assert record["parent"] == coordinator.span_id

    def test_recorder_stamps_every_record_while_installed(self):
        context = TraceContext.root("camp")
        with Telemetry.buffered() as tel:
            tel.emit("event", name="before")
            previous = tel.set_trace(context)
            assert previous is None
            tel.emit("event", name="during")
            tel.write_record({"kind": "run_end", "ts": 1.0})
            tel.set_trace(None)
            tel.emit("event", name="after")
            records = tel.drain()
        by_name = {r.get("name"): r for r in records if r["kind"] == "event"}
        assert "trace" not in by_name["before"]
        assert by_name["during"]["trace"] == context.trace_id
        assert "trace" not in by_name["after"]
        shipped = [r for r in records if r["kind"] == "run_end"]
        assert shipped[0]["trace"] == context.trace_id
