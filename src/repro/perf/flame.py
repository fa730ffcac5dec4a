"""Deterministic flamegraph rendering and folded-profile algebra.

The renderer emits a **self-contained, scriptless HTML** document —
nested flexbox ``<div>`` rows (icicle layout, root on top), colors
derived from a stable hash of the frame name, every float formatted to
fixed precision, children iterated in sorted order, and nothing drawn
from the clock or an RNG.  Rendering the same profile twice therefore
produces byte-identical output; the CI perf job asserts this, and the
campaign-autopsy HTML set the precedent for scriptless artifacts.

Folded profiles (``stack;frames;joined count`` lines) are the exchange
format between the sampler, ``perf flame``/``perf diff``, and the
bench regression gate: :func:`parse_folded` / :func:`merge_folded` /
:func:`diff_folded` / :func:`top_frames` operate on plain
``dict[str, int]`` mappings so every layer can share them.
"""

from __future__ import annotations

import hashlib
import html
from pathlib import Path
from typing import Any

from repro.errors import ExperimentError

__all__ = [
    "parse_folded",
    "merge_folded",
    "diff_folded",
    "top_frames",
    "load_stacks",
    "render_flamegraph",
]


def parse_folded(text: str) -> dict[str, int]:
    """Parse folded-stack lines (``frames;joined count``) into a mapping.

    Malformed lines are skipped — folded files may be concatenations of
    partial captures and a torn tail must not poison the whole profile.
    """
    stacks: dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count_text = line.rpartition(" ")
        if not stack:
            continue
        try:
            count = int(count_text)
        except ValueError:
            continue
        if count <= 0:
            continue
        stacks[stack] = stacks.get(stack, 0) + count
    return stacks


def merge_folded(*profiles: dict[str, int]) -> dict[str, int]:
    """Sum several folded profiles (e.g. per-chunk worker captures)."""
    merged: dict[str, int] = {}
    for profile in profiles:
        for stack, count in profile.items():
            merged[stack] = merged.get(stack, 0) + count
    return merged


def top_frames(stacks: dict[str, int], top: int = 10) -> list[dict[str, Any]]:
    """Per-frame totals: samples in stacks containing the frame
    (``total``) and samples with the frame on top (``self``).

    A frame appearing several times in one stack (recursion) is counted
    once, so ``total`` never exceeds the profile's sample count.
    """
    total_samples = sum(stacks.values()) or 1
    totals: dict[str, int] = {}
    selfs: dict[str, int] = {}
    for stack, count in stacks.items():
        frames = stack.split(";")
        for frame in set(frames):
            totals[frame] = totals.get(frame, 0) + count
        leaf = frames[-1]
        selfs[leaf] = selfs.get(leaf, 0) + count
    rows = [
        {
            "frame": frame,
            "total": total,
            "self": selfs.get(frame, 0),
            "share": round(total / total_samples, 6),
        }
        for frame, total in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self"], -row["total"], row["frame"]))
    return rows[:top]


def diff_folded(
    before: dict[str, int], after: dict[str, int], top: int = 20
) -> list[dict[str, Any]]:
    """Per-frame share drift between two profiles, biggest growth first.

    Shares are normalized by each profile's own sample count, so a
    longer capture does not read as a regression; ``delta_share > 0``
    means the frame takes a larger fraction of the wall time in
    ``after``.
    """
    base_total = sum(before.values()) or 1
    new_total = sum(after.values()) or 1

    def shares(stacks: dict[str, int], total: int) -> dict[str, float]:
        acc: dict[str, int] = {}
        for stack, count in stacks.items():
            for frame in set(stack.split(";")):
                acc[frame] = acc.get(frame, 0) + count
        return {frame: count / total for frame, count in acc.items()}

    before_share = shares(before, base_total)
    after_share = shares(after, new_total)
    rows = [
        {
            "frame": frame,
            "before_share": round(before_share.get(frame, 0.0), 6),
            "after_share": round(after_share.get(frame, 0.0), 6),
            "delta_share": round(
                after_share.get(frame, 0.0) - before_share.get(frame, 0.0), 6
            ),
        }
        for frame in sorted(set(before_share) | set(after_share))
    ]
    rows.sort(key=lambda row: (-row["delta_share"], row["frame"]))
    return rows[:top]


def load_stacks(path: str | Path) -> dict[str, int]:
    """Folded stacks from a ``.folded`` file **or** a telemetry JSONL
    log (merging every ``perf_profile`` record's ``stacks``)."""
    from repro.monitor.tail import read_log_records

    if not Path(path).is_file():
        raise ExperimentError(f"no folded stacks or telemetry log at {path}")
    text = Path(path).read_text(encoding="utf-8")
    if not text.lstrip().startswith("{"):
        return parse_folded(text)
    return merge_folded(
        *(
            {
                str(stack): int(count)
                for stack, count in record["stacks"].items()
                if isinstance(count, (int, float)) and count > 0
            }
            for record in read_log_records(path)
            if record.get("kind") == "perf_profile"
            and isinstance(record.get("stacks"), dict)
        )
    )


# -- rendering ----------------------------------------------------------------

#: Stop recursing into children narrower than this share of the root;
#: keeps pathological profiles from emitting megabytes of 0.01% boxes.
_MIN_SHARE = 0.001


def _hue(name: str) -> int:
    digest = hashlib.md5(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:2], "big") % 360


class _Node:
    __slots__ = ("children", "total", "self_count")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.total = 0
        self.self_count = 0


def _build_tree(stacks: dict[str, int]) -> _Node:
    root = _Node()
    for stack in sorted(stacks):
        count = stacks[stack]
        root.total += count
        node = root
        for frame in stack.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _Node()
            child.total += count
            node = child
        node.self_count += count
    return root


def _render_children(node: _Node, root_total: int, out: list[str]) -> None:
    parent_total = node.total or 1
    if node.self_count and node.children:
        pct = 100.0 * node.self_count / parent_total
        out.append(f'<div class="pad" style="width:{pct:.4f}%"></div>')
    for name in sorted(node.children):
        child = node.children[name]
        if child.total / (root_total or 1) < _MIN_SHARE:
            continue
        pct = 100.0 * child.total / parent_total
        share = 100.0 * child.total / (root_total or 1)
        label = html.escape(name, quote=True)
        out.append(
            f'<div class="col" style="width:{pct:.4f}%">'
            f'<div class="box" style="background:hsl({_hue(name)},62%,74%)" '
            f'title="{label} — {child.total} samples ({share:.2f}%)">'
            f"<span>{label}</span></div>"
        )
        if child.children:
            out.append('<div class="row">')
            _render_children(child, root_total, out)
            out.append("</div>")
        out.append("</div>")


_STYLE = """\
body{font:13px/1.4 sans-serif;margin:1.2em;background:#fafafa;color:#222}
h1{font-size:1.15em;margin:0 0 .25em}
.meta{color:#666;margin:0 0 1em}
.fg{font:11px monospace;border:1px solid #ddd;background:#fff;padding:2px}
.row{display:flex;width:100%}
.col{display:flex;flex-direction:column;min-width:0}
.pad{flex:none}
.box{height:17px;line-height:17px;overflow:hidden;white-space:nowrap;
     text-overflow:ellipsis;border:1px solid rgba(0,0,0,.18);
     border-radius:2px;padding:0 3px;box-sizing:border-box}
.box:hover{filter:brightness(.85)}
details{margin-top:1em}
pre{font:11px monospace;background:#fff;border:1px solid #ddd;padding:.6em;
    overflow-x:auto}
table{border-collapse:collapse;margin-top:1em}
td,th{border:1px solid #ddd;padding:2px 8px;font:12px monospace;text-align:left}
"""


def render_flamegraph(
    stacks: dict[str, int],
    *,
    title: str = "repro perf profile",
    subtitle: str | None = None,
) -> str:
    """A self-contained scriptless flamegraph HTML document.

    Byte-stable: the same ``stacks`` mapping always renders to the same
    bytes (sorted iteration, fixed float precision, no timestamps).
    """
    from repro.obs.report import page

    root = _build_tree(stacks)
    total = root.total
    parts: list[str] = []
    meta = f"{total} samples · {len(stacks)} distinct stacks"
    if subtitle:
        meta += f" · {html.escape(subtitle)}"
    parts.append(f'<p class="meta">{meta}</p>')
    if total == 0:
        parts.append('<p class="meta">(no samples captured)</p>')
    else:
        parts.append('<div class="fg"><div class="row">')
        _render_children(root, total, parts)
        parts.append("</div></div>")
        rows = top_frames(stacks, top=15)
        parts.append(
            "<table><tr><th>frame</th><th>self</th><th>total</th>"
            "<th>share</th></tr>"
        )
        for row in rows:
            parts.append(
                f"<tr><td>{html.escape(str(row['frame']))}</td>"
                f"<td>{row['self']}</td><td>{row['total']}</td>"
                f"<td>{100.0 * row['share']:.2f}%</td></tr>"
            )
        parts.append("</table>")
        folded = "\n".join(f"{stack} {stacks[stack]}" for stack in sorted(stacks))
        parts.append(
            "<details><summary>folded stacks</summary>"
            f"<pre>{html.escape(folded)}</pre></details>"
        )
    return page(title, "".join(parts), css=_STYLE)
