"""The recorder's write path: records land in the recorder, and the ambient
helpers are strict no-ops when no recorder is active."""

from repro.telemetry.core import Telemetry, event, get_active


class TestSubscription:
    def test_records_still_recorded_without_subscribers(self):
        with Telemetry.buffered() as tel:
            tel.emit("event", name="x")
            assert [r["kind"] for r in tel.drain()] == ["event"]


class TestDisabledPath:
    def test_ambient_helpers_never_touch_bus_when_inactive(self):
        # The strict no-op guarantee: with no recorder active, the fast
        # helpers return before any record is constructed.
        assert get_active() is None
        event("event", name="x")  # must simply not raise
