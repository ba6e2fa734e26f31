"""Self-contained SVG renderings of scorecards and leaderboards, plus the
delimited score table.

All charts are plain vector XML built from fixed format strings: no
external assets, fonts or timestamps, so identical inputs produce
byte-identical documents. Scores in [-100, 100] map affinely onto chart
geometry (radius or bar height), -100 at zero extent and 100 at full.
"""

from __future__ import annotations

import csv
import io
import math
from xml.sax.saxutils import escape, quoteattr

from .metrics import SCORE_IDS
from .referee import LeaderboardEntry, ScoreAggregate, ScoreCard

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#bcbd22",
)
_BASELINE_STYLE = 'stroke="#888888" stroke-dasharray="6,4" fill="none" stroke-width="1.5"'


def _fraction(value: float) -> float:
    """Affine map from [-100, 100] to [0, 1], clipped."""
    return min(1.0, max(0.0, (value + 100.0) / 200.0))


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _text(x: float, y: float, s: str, cls: str, anchor: str = "middle", size: int = 12) -> str:
    return (
        f'<text class="{cls}" x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}">{escape(s)}</text>'
    )


def _radar_point(cx: float, cy: float, radius: float, axis: int) -> tuple[float, float]:
    angle = math.radians(-90.0 + axis * 30.0)
    return cx + radius * math.cos(angle), cy + radius * math.sin(angle)


def render_radar(cards: list[ScoreCard], baseline: ScoreCard | None = None) -> str:
    """Twelve-axis radar chart of per-score aggregate means.

    Each card is drawn as a polygon; the optional baseline card is drawn
    first as a dashed reference layer.
    """
    for card in cards:
        if set(card.aggregate_scores) != set(SCORE_IDS):
            raise ValueError(f"card {card.method_name!r} does not carry twelve scores")
    w = h = 640
    cx = cy = 320.0
    r_max = 230.0
    body = []

    for ring in (0.25, 0.5, 0.75, 1.0):
        pts = " ".join(
            "%.2f,%.2f" % _radar_point(cx, cy, r_max * ring, i) for i in range(12)
        )
        body.append(f'<polygon class="grid" points="{pts}" fill="none" stroke="#dddddd"/>')
    for i, sid in enumerate(SCORE_IDS):
        ex, ey = _radar_point(cx, cy, r_max, i)
        body.append(
            f'<line class="axis" x1="{cx:.2f}" y1="{cy:.2f}" x2="{ex:.2f}" y2="{ey:.2f}" '
            'stroke="#bbbbbb"/>'
        )
        lx, ly = _radar_point(cx, cy, r_max + 22.0, i)
        body.append(_text(lx, ly + 4.0, sid, "axis-label"))

    def polygon(card: ScoreCard, style: str) -> str:
        pts = " ".join(
            "%.2f,%.2f"
            % _radar_point(cx, cy, r_max * _fraction(card.aggregate_scores[sid].mean), i)
            for i, sid in enumerate(SCORE_IDS)
        )
        return (
            f'<polygon class="score-polygon" data-method={quoteattr(card.method_name)} '
            f'points="{pts}" {style}/>'
        )

    if baseline is not None:
        body.append(polygon(baseline, _BASELINE_STYLE))
        body.append(_text(20.0, h - 14.0, f"baseline: {baseline.method_name}", "legend", "start"))
    for i, card in enumerate(cards):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            polygon(card, f'stroke="{color}" fill="{color}" fill-opacity="0.15" stroke-width="2"')
        )
        body.append(
            _text(20.0, 24.0 + 16.0 * i, card.method_name, "legend", "start")
            .replace('<text class="legend"', f'<text class="legend" fill="{color}"')
        )
    return _svg(w, h, body)


def render_ranked_bar(entries: list[LeaderboardEntry]) -> str:
    """One bar per method in leaderboard order, height from composite mean."""
    if not entries:
        raise ValueError("empty leaderboard")
    bar_w, gap, margin = 56, 24, 50
    plot_h = 280
    w = margin * 2 + len(entries) * (bar_w + gap)
    h = plot_h + 120
    base_y = 40 + plot_h
    body = [
        f'<line class="axis" x1="{margin}" y1="{base_y}" x2="{w - margin}" y2="{base_y}" '
        'stroke="#333333"/>'
    ]
    for i, e in enumerate(entries):
        x = margin + i * (bar_w + gap)
        bar_h = _fraction(e.composite_mean) * plot_h
        y = base_y - bar_h
        color = _PALETTE[i % len(_PALETTE)]
        body.append(
            f'<rect class="bar" data-method={quoteattr(e.method_name)} '
            f'x="{x:.2f}" y="{y:.2f}" width="{bar_w}" height="{bar_h:.2f}" fill="{color}"/>'
        )
        body.append(_text(x + bar_w / 2, y - 6.0, f"{e.composite_mean:.2f}", "value"))
        body.append(_text(x + bar_w / 2, base_y + 16.0, f"#{e.rank}", "rank"))
        body.append(_text(x + bar_w / 2, base_y + 34.0, e.method_name, "method", size=10))
    return _svg(w, h, body)


def top3_per_score(cards: list[ScoreCard]) -> dict[str, list[ScoreCard]]:
    """The up-to-three best cards per score id, by aggregate mean (ties by name)."""
    out = {}
    for sid in SCORE_IDS:
        ranked = sorted(
            cards, key=lambda c: (-c.aggregate_scores[sid].mean, c.method_name)
        )
        out[sid] = ranked[:3]
    return out


def render_top3(cards: list[ScoreCard], baseline: ScoreCard | None = None) -> str:
    """Per-score groups of the three best methods, with a baseline level line."""
    if not cards:
        raise ValueError("need at least one card")
    winners = top3_per_score(cards)
    colors = {c.method_name: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(cards)}
    bar_w, group_gap = 18, 26
    group_w = 3 * bar_w + group_gap
    margin = 50
    plot_h = 240
    w = margin * 2 + 12 * group_w
    h = plot_h + 120
    base_y = 40 + plot_h
    body = [
        f'<line class="axis" x1="{margin}" y1="{base_y}" x2="{w - margin}" y2="{base_y}" '
        'stroke="#333333"/>'
    ]
    for gi, sid in enumerate(SCORE_IDS):
        gx = margin + gi * group_w
        for bi, card in enumerate(winners[sid]):
            mean = card.aggregate_scores[sid].mean
            bar_h = _fraction(mean) * plot_h
            x = gx + bi * bar_w
            body.append(
                f'<rect class="bar" data-score="{sid}" '
                f"data-method={quoteattr(card.method_name)} "
                f'x="{x:.2f}" y="{base_y - bar_h:.2f}" width="{bar_w - 2}" '
                f'height="{bar_h:.2f}" fill="{colors[card.method_name]}"/>'
            )
        if baseline is not None:
            level = base_y - _fraction(baseline.aggregate_scores[sid].mean) * plot_h
            body.append(
                f'<line class="baseline-line" data-score="{sid}" '
                f'x1="{gx:.2f}" y1="{level:.2f}" x2="{gx + 3 * bar_w - 2:.2f}" '
                f'y2="{level:.2f}" {_BASELINE_STYLE}/>'
            )
        body.append(_text(gx + 1.5 * bar_w, base_y + 16.0, sid, "group-label"))
    for i, (name, color) in enumerate(colors.items()):
        body.append(
            f'<text class="legend" fill="{color}" x="{margin}" y="{base_y + 40 + 14 * i}" '
            f'text-anchor="start" font-family="sans-serif" font-size="11">{escape(name)}</text>'
        )
    if baseline is not None:
        body.append(
            _text(w - margin, base_y + 40, f"baseline: {baseline.method_name}", "legend", "end", 11)
        )
    return _svg(w, h, body)


def _cell(agg: ScoreAggregate) -> str:
    return f"{agg.mean:.2f} (± {agg.std:.2f})"


def _rows(cards: list[ScoreCard]) -> list[list[str]]:
    """Header plus one row per card in leaderboard order."""
    ordered = sorted(cards, key=lambda c: (-c.aggregate_composite.mean, c.method_name))
    return [["model", "avg_score", *SCORE_IDS]] + [
        [c.method_name, _cell(c.aggregate_composite),
         *(_cell(c.aggregate_scores[sid]) for sid in SCORE_IDS)]
        for c in ordered
    ]


def export_table(cards: list[ScoreCard]) -> str:
    """CSV score table: model, composite, E1..E12 as "mean (± std)" cells,
    rows in leaderboard order."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(_rows(cards))
    return buf.getvalue()


def export_table_markdown(cards: list[ScoreCard]) -> str:
    """The same table as a Markdown pipe table."""
    header, *rows = _rows(cards)
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"
