"""Assemble a reproduction report from saved benchmark results.

``REPRO_BENCH_SCALE=full pytest benchmarks/ --benchmark-only`` writes
every experiment's rendered table under ``benchmarks/results/``;
:func:`build_report` stitches them into one markdown document (with the
experiment-to-claim mapping from DESIGN.md §3), and
``python -m repro report`` prints or writes it.  This keeps
EXPERIMENTS.md's raw-number appendix regenerable from scratch.
"""

from __future__ import annotations

import logging
import pathlib
from dataclasses import dataclass

from repro.errors import ExperimentError

__all__ = ["ReportSection", "discover_results", "build_report"]

logger = logging.getLogger("repro.experiments.report")

#: Display order and one-line claim per result file stem.
CLAIMS: dict[str, str] = {
    "e1_decay": "Theorem 1 — Decay reception probabilities",
    "e2_broadcast_time": "Theorem 4 — broadcast completion vs the slot bound",
    "e2b_diameter_scaling": "Theorem 4 — time linear in D at fixed conflict density",
    "e2c_upper_bound_sensitivity": "Sec. 1.1 — polynomial upper bound N costs only a constant",
    "e3_success_rate": "Lemma 2 — success probability >= 1 - eps",
    "e4_adversary": "Lemmas 9-10 / Prop. 11 — find_set stalls every strategy n/2 moves",
    "e4b_protocol_lower_bound": "Theorem 12 via Lemma 7 — protocols stalled >= n/4 rounds",
    "e4c_upper_bounds": "Sec. 3.4 — matching O(n) upper bounds",
    "e4d_exhaustive": "Theorem 12 — exhaustive over all hidden sets (engine level)",
    "e5_gap": "Corollary 13 — the exponential gap (headline)",
    "e6_bfs": "Sec. 2.3 — Decay BFS labels correct w.p. >= 1 - eps",
    "e7_messages": "Property 2 — expected transmissions <= 2n * phases",
    "e8_coin_bias": "[H87] — coin-bias ablation",
    "e8b_alignment": "Design decision 2 — phase alignment ablation",
    "e9_dynamic": "Property 3 — resilience to fail/stop edge faults",
    "e9b_mobility": "Property 3 — resilience under random-waypoint mobility",
    "e10_cd_cn": "Sec. 4 — 4-slot C_n broadcast with collision detection",
    "e10b_tree_splitting": "Related work — tree splitting on a CD channel",
    "e11_dfs": "Sec. 3.4 — DFS token broadcast within 2n slots",
    "e11b_deterministic_comparison": "Deterministic regimes: DFS vs TDMA vs schedules",
    "e12a_three_round": "Sec. 3.5 — 3-slot spontaneous protocol on C_n",
    "e12b_c_star": "Sec. 3.5 — C*_n restores the linear bound",
    "ext_leader_election": "Extension — Decay leader election ([BGI89])",
    "ext_emulation": "Extension — single-hop-CD emulation ([BGI89])",
    "ext_schedule_quality": "Extension — centralized schedule quality ([CW87])",
}


@dataclass(frozen=True)
class ReportSection:
    """One experiment's contribution to the report."""

    name: str
    claim: str
    body: str


def discover_results(results_dir: pathlib.Path | str) -> list[ReportSection]:
    """Load every known result file present in ``results_dir``, in
    canonical order; unknown files are appended alphabetically."""
    directory = pathlib.Path(results_dir)
    if not directory.is_dir():
        raise ExperimentError(f"no results directory at {directory}")
    present = {p.stem: p for p in sorted(directory.glob("*.txt"))}
    sections: list[ReportSection] = []
    for stem, claim in CLAIMS.items():
        if stem in present:
            sections.append(
                ReportSection(stem, claim, present.pop(stem).read_text().rstrip())
            )
    for stem, path in sorted(present.items()):
        logger.warning("result file %s has no claim mapping; appending as-is", path.name)
        sections.append(ReportSection(stem, "(unmapped result)", path.read_text().rstrip()))
    logger.info("discovered %d result tables in %s", len(sections), directory)
    return sections


def build_report(results_dir: pathlib.Path | str, *, title: str | None = None) -> str:
    """The full markdown report as a string."""
    sections = discover_results(results_dir)
    if not sections:
        raise ExperimentError("no result tables found; run the benchmarks first")
    lines = [
        title or "# Reproduction report — BGI (PODC 1987)",
        "",
        f"{len(sections)} experiment tables collected from `benchmarks/results/`.",
        "Regenerate with `REPRO_BENCH_SCALE=full pytest benchmarks/ --benchmark-only`.",
        "",
    ]
    for section in sections:
        lines.append(f"## {section.name} — {section.claim}")
        lines.append("")
        lines.append("```")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
