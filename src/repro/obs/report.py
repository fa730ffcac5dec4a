"""Render the run store: terminal tables, sparklines, HTML dashboards.

Everything here is dependency-free.  Terminal output reuses the
experiment :class:`~repro.analysis.tables.Table` plus Unicode block
sparklines; the HTML dashboard is a single self-contained page — inline
CSS and inline SVG charts, no scripts, no external assets — so it can
be attached as a CI artifact and opened anywhere.
"""

from __future__ import annotations

import html as html_mod
import json
import time
from typing import Any

from repro.analysis.tables import Table
from repro.obs.query import TrendPoint
from repro.obs.store import RunStore

__all__ = [
    "page",
    "sparkline",
    "run_tables",
    "trend_table",
    "render_run_html",
    "render_trend_html",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], *, width: int | None = None) -> str:
    """A Unicode block sparkline of ``values`` (min→max scaled)."""
    if not values:
        return ""
    if width is not None and len(values) > width > 0:
        # Bucket-average down to the requested width.
        step = len(values) / width
        values = [
            sum(bucket) / len(bucket)
            for i in range(width)
            if (bucket := values[int(i * step): max(int((i + 1) * step), int(i * step) + 1)])
        ]
    lo, hi = min(values), max(values)
    if hi == lo:
        return _BLOCKS[3] * len(values)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int((v - lo) * scale)] for v in values)


def _fmt(value: Any) -> str:
    """A table/tile cell: ``-`` for ``None``, floats in table format."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return Table._format_cell(value)
    return str(value)


# -- terminal -------------------------------------------------------------


def run_tables(store: RunStore, run: dict[str, Any]) -> list[Table]:
    """The per-run report as fixed-width tables."""
    run_id = run["id"]
    tables: list[Table] = []

    ident = Table(
        f"Run {run_id} — {run.get('command') or 'unknown command'}",
        ["fingerprint", "seed", "git_sha", "host", "created", "records", "source"],
    )
    created = run.get("created")
    ident.add_row(
        str(run["fingerprint"])[:12],
        _fmt(run.get("seed")),
        (run.get("git_sha") or "-")[:12],
        run.get("host") or "-",
        time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(created)) if created else "-",
        _fmt(run.get("records")),
        run.get("source_path") or "-",
    )
    tables.append(ident)

    metrics = store.metrics_for(run_id)
    if metrics:
        metric_table = Table("Aggregates", ["metric", "value"])
        for name, value in sorted(metrics.items()):
            metric_table.add_row(name, _fmt(value))
        tables.append(metric_table)

    series = store.series_for(run_id, "slots_per_sec")
    if series:
        values = [y for _, y in series]
        spark_table = Table(
            "slots/sec over the run (slot_batch samples)",
            ["samples", "min", "mean", "max", "sparkline"],
        )
        spark_table.add_row(
            len(values), min(values), sum(values) / len(values), max(values),
            sparkline(values, width=48),
        )
        tables.append(spark_table)

    phases = store.phases_for(run_id)
    if phases:
        phase_table = Table(
            "Phase markers", ["proto", "index", "count", "slot_mean", "mean_length"]
        )
        for row in phases:
            phase_table.add_row(
                row["proto"], row["idx"], _fmt(row["count"]),
                _fmt(row["slot_mean"]), _fmt(row["mean_length"]),
            )
        tables.append(phase_table)

    prov_count = store.provenance_count(run_id)
    if prov_count:
        prov_table = Table("Causal provenance", ["rows", "query"])
        prov_table.add_row(
            prov_count,
            f"python -m repro obs explain {store.path} --run {run_id} "
            f"--node V --slot T",
        )
        tables.append(prov_table)
    return tables


def trend_table(
    metric: str, points: list[TrendPoint], verdict: dict[str, Any] | None = None
) -> Table:
    """The trend series as a table, one row per run/bench point."""
    table = Table(f"Trend — {metric} ({len(points)} points)",
                  ["#", "label", metric, "vs prev", "spark"])
    values = [p.value for p in points]
    spark = sparkline(values, width=max(len(values), 1))
    for i, point in enumerate(points):
        prev = values[i - 1] if i else None
        vs = f"{(point.value - prev) / abs(prev) * 100.0:+.1f}%" if prev else "-"
        table.add_row(i + 1, point.label, point.value, vs,
                      spark[: i + 1] if len(spark) >= len(values) else spark)
    if verdict is not None and verdict.get("baseline") is not None:
        table.add_row(
            "", "baseline", verdict["baseline"],
            f"thr {verdict['threshold']:.0%} {verdict['direction']}",
            "REGRESSED" if verdict["regressed"] else "ok",
        )
    return table


# -- HTML dashboard -------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1d23; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: .75rem; }
.tile { border: 1px solid #d9dde3; border-radius: .5rem; padding: .6rem .9rem;
        min-width: 8rem; background: #f8f9fb; }
.tile .v { font-size: 1.25rem; font-weight: 600; }
.tile .k { font-size: .75rem; color: #5b6472; }
table { border-collapse: collapse; font-size: .85rem; }
th, td { border: 1px solid #d9dde3; padding: .3rem .6rem; text-align: right; }
th { background: #eef1f5; } td:first-child, th:first-child { text-align: left; }
.bad { color: #b3261e; font-weight: 600; } .ok { color: #1b6e3b; }
.meta { color: #5b6472; font-size: .8rem; }
svg { background: #fcfcfd; border: 1px solid #e3e6eb; border-radius: .4rem; }
"""


def _svg_line_chart(
    points: list[tuple[float, float]],
    *,
    width: int = 720,
    height: int = 220,
    stroke: str = "#3564c4",
    hline: tuple[float, str] | None = None,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """A minimal inline-SVG line chart (polyline + dots + axis labels)."""
    if not points:
        return "<p class='meta'>no data</p>"
    pad = 42
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if hline is not None:
        ys = ys + [hline[0]]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    y_lo -= (y_hi - y_lo) * 0.08
    y_hi += (y_hi - y_lo) * 0.08

    def sx(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    dots = "".join(
        f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='2.6' fill='{stroke}'/>"
        for x, y in points
    )
    parts = [
        f"<svg viewBox='0 0 {width} {height}' width='{width}' height='{height}' "
        f"role='img' xmlns='http://www.w3.org/2000/svg'>",
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='#aab2bd'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' "
        f"stroke='#aab2bd'/>",
        f"<text x='{pad}' y='{pad - 10}' font-size='11' fill='#5b6472'>"
        f"{html_mod.escape(y_label)} {Table._format_cell(max(p[1] for p in points))}"
        f"</text>",
        f"<text x='{width - pad}' y='{height - pad + 16}' font-size='11' "
        f"text-anchor='end' fill='#5b6472'>{html_mod.escape(x_label)}</text>",
    ]
    if hline is not None:
        y = sy(hline[0])
        parts.append(
            f"<line x1='{pad}' y1='{y:.1f}' x2='{width - pad}' y2='{y:.1f}' "
            f"stroke='#b3261e' stroke-dasharray='5 4'/>"
            f"<text x='{width - pad}' y='{y - 4:.1f}' font-size='10' "
            f"text-anchor='end' fill='#b3261e'>{html_mod.escape(hline[1])}</text>"
        )
    parts.append(
        f"<polyline points='{path}' fill='none' stroke='{stroke}' stroke-width='1.8'/>"
    )
    parts.append(dots)
    parts.append("</svg>")
    return "".join(parts)


def page(title: str, body: str, *, css: str = _CSS) -> str:
    """One self-contained HTML page around ``body``: inline ``css``, no
    scripts, no external assets.

    Every HTML artifact the toolkit writes — the obs dashboards,
    flamegraphs and fabric autopsies — is built here with
    its own stylesheet.  A pure function of its arguments, so a page
    rendered twice from the same input is byte-identical.
    """
    return (
        "<!doctype html>\n<html lang='en'><head><meta charset='utf-8'>"
        f"<title>{html_mod.escape(title)}</title><style>{css}</style></head>"
        f"<body><h1>{html_mod.escape(title)}</h1>{body}"
        "<p class='meta'>generated by python -m repro "
        "(self-contained, no external assets)</p></body></html>\n"
    )


def _tile(key: str, value: Any) -> str:
    """A headline metric tile (the ``.tile`` class of the default CSS)."""
    return (
        f"<div class='tile'><div class='v'>{html_mod.escape(_fmt(value))}</div>"
        f"<div class='k'>{html_mod.escape(key)}</div></div>"
    )


_TILE_METRICS = [
    "engine_runs", "slots", "slots_per_sec", "transmissions", "collisions",
    "collisions_per_node", "deliveries", "wall_s", "faults",
]


def render_run_html(store: RunStore, run: dict[str, Any]) -> str:
    """One run as a self-contained HTML dashboard."""
    run_id = run["id"]
    metrics = store.metrics_for(run_id)
    body: list[str] = []
    created = run.get("created")
    body.append(
        "<p class='meta'>"
        + html_mod.escape(
            f"run {run_id} · {run.get('command') or 'unknown command'} · "
            f"seed {run.get('seed')} · fingerprint {str(run['fingerprint'])[:12]} · "
            f"git {(run.get('git_sha') or '-')[:12]} · "
            + (time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(created))
               if created else "-")
        )
        + "</p>"
    )
    body.append("<div class='tiles'>")
    for key in _TILE_METRICS:
        if key in metrics:
            body.append(_tile(key, metrics[key]))
    body.append("</div>")

    series = store.series_for(run_id, "slots_per_sec")
    if series:
        body.append("<h2>Engine throughput over the run</h2>")
        body.append(_svg_line_chart(series, x_label="slot", y_label="slots/sec"))

    progress = store.series_for(run_id, "progress")
    if progress:
        body.append("<h2>Campaign progress</h2>")
        body.append(_svg_line_chart(progress, stroke="#1b6e3b",
                                    x_label="elapsed s", y_label="items done"))

    phases = store.phases_for(run_id)
    if phases:
        body.append("<h2>Phase markers</h2><table><tr><th>proto</th><th>index</th>"
                    "<th>count</th><th>slot mean</th><th>mean length</th></tr>")
        for row in phases:
            body.append(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>"
                .format(*(html_mod.escape(_fmt(v)) for v in (
                    row["proto"], row["idx"], row["count"],
                    row["slot_mean"], row["mean_length"],
                )))
            )
        body.append("</table>")

    others = {k: v for k, v in sorted(metrics.items()) if k not in _TILE_METRICS}
    if others:
        body.append("<h2>All aggregates</h2><table>"
                    "<tr><th>metric</th><th>value</th></tr>")
        for name, value in others.items():
            body.append(f"<tr><td>{html_mod.escape(name)}</td>"
                        f"<td>{html_mod.escape(_fmt(value))}</td></tr>")
        body.append("</table>")

    prov_count = store.provenance_count(run_id)
    if prov_count:
        body.append(
            f"<h2>Causal provenance</h2><p class='meta'>{prov_count} "
            f"(node, slot) entries — query with <code>python -m repro obs explain "
            f"{html_mod.escape(str(store.path))} --run {run_id} --node V --slot T"
            f"</code></p>"
        )
    title = f"repro run {run_id} — {run.get('command') or 'telemetry log'}"
    return page(title, "".join(body))


def render_trend_html(
    metric: str,
    points: list[TrendPoint],
    verdict: dict[str, Any] | None = None,
    *,
    source: str = "runs",
) -> str:
    """A trend series (runs or bench trajectory) as an HTML dashboard."""
    body: list[str] = []
    values = [p.value for p in points]
    body.append("<div class='tiles'>")
    body.append(_tile("points", len(points)))
    if values:
        body.append(_tile("latest", values[-1]))
        body.append(_tile("best", max(values)))
    if verdict is not None and verdict.get("baseline") is not None:
        body.append(_tile("baseline (median)", verdict["baseline"]))
        status = "REGRESSED" if verdict["regressed"] else "ok"
        cls = "bad" if verdict["regressed"] else "ok"
        body.append(
            f"<div class='tile'><div class='v {cls}'>{status}</div>"
            f"<div class='k'>vs threshold {verdict['threshold']:.0%} "
            f"({verdict['direction']})</div></div>"
        )
    body.append("</div>")

    hline = None
    if verdict is not None:
        tripwire = verdict.get("floor", verdict.get("ceiling"))
        if tripwire is not None:
            kind = "floor" if "floor" in verdict else "ceiling"
            hline = (tripwire, f"{kind} {Table._format_cell(tripwire)}")
    body.append(f"<h2>{html_mod.escape(metric)} over {source}</h2>")
    body.append(
        _svg_line_chart(
            [(float(i + 1), p.value) for i, p in enumerate(points)],
            hline=hline, x_label=f"{source} (ordered)", y_label=metric,
        )
    )

    body.append("<h2>Points</h2><table><tr><th>#</th><th>label</th>"
                f"<th>{html_mod.escape(metric)}</th><th>vs prev</th></tr>")
    for i, point in enumerate(points):
        prev = values[i - 1] if i else None
        vs = f"{(point.value - prev) / abs(prev) * 100.0:+.1f}%" if prev else "-"
        body.append(
            f"<tr><td>{i + 1}</td><td>{html_mod.escape(point.label)}</td>"
            f"<td>{html_mod.escape(_fmt(point.value))}</td><td>{vs}</td></tr>"
        )
    body.append("</table>")
    if verdict is not None:
        body.append(
            "<p class='meta'>verdict: "
            + html_mod.escape(json.dumps(
                {k: v for k, v in verdict.items() if k != "points"},
                sort_keys=True, default=repr))
            + "</p>"
        )
    return page(f"repro trend — {metric} ({source})", "".join(body))
