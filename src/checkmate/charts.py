"""SVG charts of validation results and of status tables across versions."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .results import summarize

if TYPE_CHECKING:
    from .diffs import StatusTable
    from .engine import Validation


def _text(x, y, body, size, anchor=None, fill=None) -> str:
    """A sans-serif ``<text>`` of ``body``, its ``&``, ``<`` and ``>`` escaped."""
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    fill = f' fill="{fill}"' if fill else ""
    attrs = f'x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{fill}'
    return f"<text {attrs}>{body}</text>"


def _svg(width, height, title_x, title, parts: list[str]) -> str:
    """The SVG document of ``parts`` under ``title``, centred at ``title_x``."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}">'
    return "\n".join([head, _text(title_x, 24, title, 16, "middle"), *parts, "</svg>"])


def svg_bar_chart(v: Validation) -> str:
    """Stacked per-rule bars of passes / fails / NA counts."""
    rows = [r for r in summarize(v) if not r.error]
    width, bar_h, gap, left, top = 640, 26, 10, 110, 50
    plot_w = width - left - 30
    height = top + len(rows) * (bar_h + gap) + 40
    biggest = max((r.items for r in rows), default=1) or 1
    parts = []
    for i, row in enumerate(rows):
        y = top + i * (bar_h + gap)
        parts.append(_text(left - 8, y + bar_h - 8, row.name, 12, "end"))
        x = left
        for count, color in zip((row.passes, row.fails, row.nNA), _BAR_COLORS):
            if count == 0:
                continue
            w = plot_w * count / biggest
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" height="{bar_h}" fill="{color}"/>'
            )
            parts.append(_text(f"{x + w / 2:.1f}", y + bar_h - 8, count, 11, "middle", "white"))
            x += w
    legend_y = height - 18
    x = left
    for label, color in zip(("pass", "fail", "NA"), _BAR_COLORS):
        parts.append(f'<rect x="{x}" y="{legend_y - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(_text(x + 16, legend_y, label, 12))
        x += 70
    return _svg(width, height, width / 2, "validation results", parts)


# bar and legend colours, in the order of the pass, fail and NA counts
_BAR_COLORS = ("#2e7d32", "#c62828", "#9e9e9e")
_LINE_COLORS = [
    "#1565c0", "#2e7d32", "#c62828", "#6a1b9a", "#ef6c00", "#00838f",
    "#9e9e9e", "#558b2f", "#ad1457", "#4527a0", "#795548",
]


def svg_line_chart(table: StatusTable) -> str:
    """One line per status across dataset versions."""
    width, height, left, top, right, bottom = 720, 420, 60, 40, 170, 50
    plot_w = width - left - right
    plot_h = height - top - bottom
    versions = table.version_names
    biggest = max(max(col) for col in table.counts.values()) or 1
    step = plot_w / max(len(versions) - 1, 1)

    def xy(i, count):
        x = left + i * step
        y = top + plot_h * (1 - count / biggest)
        return x, y

    parts = [
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" stroke="black"/>',
    ]
    for i, version in enumerate(versions):
        x, _ = xy(i, 0)
        parts.append(_text(f"{x:.1f}", height - bottom + 20, version, 11, "middle"))
    for k, status in enumerate(table.statuses):
        color = _LINE_COLORS[k % len(_LINE_COLORS)]
        points = " ".join(
            "{:.1f},{:.1f}".format(*xy(i, table.counts[status][i]))
            for i in range(len(versions))
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        ly = top + 14 * k
        parts.append(
            f'<line x1="{width - right + 10}" y1="{ly}" x2="{width - right + 28}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(_text(width - right + 34, ly + 4, status, 11))
    return _svg(width, height, (left + width - right) / 2, "status by version", parts)
