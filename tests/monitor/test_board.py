"""The live status board and its two render modes."""

import io

from repro.monitor.board import BoardRenderer, StatusBoard
from repro.monitor.conformance import Alert


def feed_board(board, records):
    for record in records:
        board.summary.feed(record)
    return board


def sample_records():
    return [
        {"kind": "manifest", "ts": 0.0, "command": "experiment"},
        {"kind": "run_begin", "ts": 1.0, "run": "r1", "nodes": 8},
        {"kind": "run_end", "ts": 2.0, "run": "r1", "slots": 100,
         "transmissions": 50, "collisions": 10, "deliveries": 7,
         "wall_s": 0.5, "informed": 8},
        {"kind": "run_begin", "ts": 3.0, "run": "r2", "nodes": 8},
        {"kind": "run_end", "ts": 4.0, "run": "r2", "slots": 100,
         "transmissions": 40, "collisions": 30, "deliveries": 2,
         "wall_s": 0.5, "informed": 3},
        {"kind": "progress", "ts": 4.5, "done": 2, "total": 10},
        {"kind": "fault", "ts": 4.6, "fault": "jam", "node": 1},
    ]


class TestStatusBoard:
    def test_aggregates_stream(self):
        board = feed_board(StatusBoard(), sample_records())
        summary = board.summary  # the board renders the stream's one fold
        assert summary.command == "experiment"
        assert summary.count("run_begin") == 2 and summary.count("run_end") == 2
        assert summary.runs_succeeded == 1  # r2 informed 3 < 8 nodes
        assert summary.runs["slots"] == 200
        assert board.slots_per_sec == 200.0
        assert board.collision_rate == 40 / 90
        assert summary.progress_done == 2 and summary.progress_total == 10
        assert summary.count("fault") == 1

    def test_snapshot_is_json_shaped(self):
        board = feed_board(StatusBoard(), sample_records())
        board.note_alert(Alert(rule="x", severity="critical", message="m"))
        snap = board.snapshot()
        assert snap["runs"] == {"begun": 2, "ended": 2, "succeeded": 1}
        assert snap["alerts"][0]["rule"] == "x"

    def test_lines_reflect_alerts(self):
        board = feed_board(StatusBoard(), sample_records())
        assert "alerts: none" in board.lines()
        board.note_alert(Alert(rule="theorem1-decay", severity="critical",
                               message="too many failures", theorem="1"))
        lines = board.lines()
        assert any("ALERTS OPEN: 1" in line for line in lines)
        assert any("theorem1-decay" in line for line in lines)

    def test_empty_board_renders(self):
        assert StatusBoard().lines()
        assert StatusBoard().status_line().startswith("monitor:")


class TestRenderer:
    def test_plain_mode_emits_lines(self):
        board = StatusBoard()
        out = io.StringIO()
        renderer = BoardRenderer(board, stream=out, interval=0.0, plain=True)
        renderer.refresh(force=True)
        feed_board(board, sample_records())
        renderer.refresh(force=True)
        lines = out.getvalue().splitlines()
        assert all(line.startswith("monitor:") for line in lines)
        assert len(lines) == 2
        assert "\x1b[" not in out.getvalue()  # no ANSI when piped

    def test_plain_mode_suppresses_duplicate_lines(self):
        board = StatusBoard()
        out = io.StringIO()
        renderer = BoardRenderer(board, stream=out, interval=0.0, plain=True)
        renderer.refresh()
        renderer.refresh()  # unchanged: no second line
        assert len(out.getvalue().splitlines()) == 1

    def test_tty_mode_repaints_in_place(self):
        board = StatusBoard()
        out = io.StringIO()
        renderer = BoardRenderer(board, stream=out, interval=0.0, plain=False)
        renderer.refresh(force=True)
        feed_board(board, sample_records())
        renderer.refresh(force=True)
        painted = out.getvalue()
        assert "\x1b[2K" in painted  # clears each line before repaint
        assert f"\x1b[{len(board.lines())}F" in painted  # cursor-up rewind

    def test_auto_detects_non_tty(self):
        renderer = BoardRenderer(StatusBoard(), stream=io.StringIO())
        assert renderer.plain is True
