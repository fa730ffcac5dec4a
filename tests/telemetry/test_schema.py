"""Tests for the telemetry event schema contract."""

from repro.telemetry.schema import (
    KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    validate_line,
    validate_log_lines,
    validate_record,
)


class TestValidateRecord:
    def test_valid_minimal_records(self):
        assert not validate_record({"kind": "fault", "ts": 1.0, "slot": 3})
        assert not validate_record(
            {"kind": "phase", "ts": 1.0, "proto": "decay", "node": 0, "index": 0, "slot": 5}
        )

    def test_run_end_phase_rows(self):
        end = {"kind": "run_end", "ts": 1.0, "run": "r1", "slots": 9, "wall_s": 0.1,
               "transmissions": 1, "collisions": 0, "deliveries": 1}
        row = ["decay", 0, 2, 3, 5, 8, 2, 8]
        assert not validate_record({**end, "phases": [row]})
        assert validate_record({**end, "phases": {"decay": row}})
        errors = validate_record({**end, "phases": [row, row[:-1], [*row[:5], "8", *row[6:]],
                                                    [*row[:2], True, *row[3:]]]})
        assert [error.split(" must ")[0] for error in errors] == [
            "phases[1]", "phases[2]", "phases[3]"]
        # A phase record's own extra `phases` field is not a row list.
        assert not validate_record({"kind": "phase", "ts": 1.0, "proto": "decay",
                                    "node": 0, "index": 0, "slot": 5, "phases": 4})

    def test_extra_fields_are_allowed(self):
        record = {"kind": "fault", "ts": 1.0, "slot": 1, "anything": "goes"}
        assert not validate_record(record)

    def test_missing_kind_and_ts(self):
        errors = validate_record({})
        assert any("kind" in e for e in errors)
        assert any("ts" in e for e in errors)

    def test_unknown_kind(self):
        errors = validate_record({"kind": "mystery", "ts": 1.0})
        assert any("unknown kind" in e for e in errors)

    def test_missing_required_fields_named(self):
        errors = validate_record({"kind": "run_end", "ts": 1.0, "run": "r1"})
        assert len(errors) == 1
        for field in ("slots", "wall_s", "transmissions", "collisions", "deliveries"):
            assert field in errors[0]

    def test_numeric_fields_enforced(self):
        errors = validate_record(
            {"kind": "fault", "ts": 1.0, "slot": "three"}
        )
        assert any("must be a number" in e for e in errors)

    def test_bool_is_not_a_number(self):
        errors = validate_record({"kind": "fault", "ts": 1.0, "slot": True})
        assert any("must be a number" in e for e in errors)

    def test_non_object_rejected(self):
        assert validate_record([1, 2, 3])

    def test_every_kind_has_requirements(self):
        assert SCHEMA == f"repro-telemetry/{SCHEMA_VERSION}"
        for kind, required in KINDS.items():
            assert isinstance(required, frozenset), kind


class TestValidateLines:
    def test_blank_lines_are_fine(self):
        assert validate_line("") == []
        assert validate_line("   \n") == []

    def test_torn_json_reported(self):
        errors = validate_line('{"kind": "fault", "ts":')
        assert any("not valid JSON" in e for e in errors)

    def test_log_errors_carry_line_numbers(self):
        lines = [
            '{"kind": "fault", "ts": 1.0, "slot": 3}',
            '{"kind": "nope", "ts": 1.0}',
            "not json",
        ]
        errors = validate_log_lines(lines)
        assert any(e.startswith("line 2:") for e in errors)
        assert any(e.startswith("line 3:") for e in errors)
        assert not any(e.startswith("line 1:") for e in errors)


class TestProvenanceKind:
    def test_prov_is_a_known_kind(self):
        assert "prov" in KINDS
        assert KINDS["prov"] == frozenset({"slot", "node", "outcome"})

    def test_valid_prov_record(self):
        assert not validate_record(
            {"kind": "prov", "ts": 1.0, "run": "r1", "slot": 3, "node": 1,
             "outcome": "collision", "tx": [0, 2]}
        )

    def test_prov_missing_outcome_flagged(self):
        errors = validate_record({"kind": "prov", "ts": 1.0, "slot": 3, "node": 1})
        assert any("outcome" in e for e in errors)
