"""Tests for the report assembler."""

import pathlib

import pytest

from repro.errors import ExperimentError
from repro.experiments.report import CLAIMS, build_report, discover_results


@pytest.fixture
def results_dir(tmp_path):
    (tmp_path / "e1_decay.txt").write_text("E1 table\nrow\n")
    (tmp_path / "e5_gap.txt").write_text("E5 table\nrow\n")
    (tmp_path / "mystery.txt").write_text("???\n")
    return tmp_path


class TestDiscover:
    def test_known_results_in_canonical_order(self, results_dir):
        sections = discover_results(results_dir)
        names = [s.name for s in sections]
        assert names.index("e1_decay") < names.index("e5_gap")

    def test_unknown_results_appended(self, results_dir):
        sections = discover_results(results_dir)
        assert sections[-1].name == "mystery"
        assert sections[-1].claim == "(unmapped result)"

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ExperimentError):
            discover_results(tmp_path / "nope")


class TestBuildReport:
    def test_contains_tables_and_claims(self, results_dir):
        text = build_report(results_dir)
        assert "E1 table" in text
        assert "Theorem 1" in text
        assert "Corollary 13" in text
        assert text.startswith("# Reproduction report")

    def test_custom_title(self, results_dir):
        text = build_report(results_dir, title="# Custom")
        assert text.startswith("# Custom")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            build_report(tmp_path)

    def test_real_results_if_present(self):
        real = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
        if not real.is_dir():
            pytest.skip("no benchmark results yet")
        text = build_report(real)
        assert "e5_gap" in text


def test_claims_cover_every_bench_output():
    # Every emit() name used by the benchmarks must have a claim entry,
    # so the report never shows "(unmapped result)" for our own files.
    bench_dir = pathlib.Path(__file__).parents[2] / "benchmarks"
    import re

    emitted = set()
    for path in bench_dir.glob("bench_*.py"):
        emitted |= set(re.findall(r'emit\(\s*"([^"]+)"', path.read_text()))
    missing = emitted - set(CLAIMS)
    assert not missing, f"add CLAIMS entries for: {sorted(missing)}"


def test_claims_and_committed_tables_agree():
    # Each committed table has a claim, and each claim a committed table:
    # the report neither appends an "(unmapped result)" nor drops a claim.
    results = pathlib.Path(__file__).parents[2] / "benchmarks" / "results"
    tables = {path.stem for path in results.glob("*.txt")}
    assert sorted(tables - set(CLAIMS)) == [], "tables without a CLAIMS entry"
    assert sorted(set(CLAIMS) - tables) == [], "CLAIMS entries without a table"


def test_cli_report_command(results_dir, capsys):
    from repro.cli import main

    code = main(["report", "--results-dir", str(results_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "E5 table" in out


def test_cli_report_to_file(results_dir, tmp_path):
    from repro.cli import main

    target = tmp_path / "REPORT.md"
    code = main(["report", "--results-dir", str(results_dir), "--output", str(target)])
    assert code == 0
    assert "E1 table" in target.read_text()
