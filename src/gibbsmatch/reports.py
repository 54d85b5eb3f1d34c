"""Report emission: schema-stable CSV/JSON and hand-rolled SVG charts.

Every emitter returns a string with LF line endings and '.' decimals; floats
use repr() so repeated runs are byte-identical. The SVG charts are small
self-contained documents (no plotting toolkit): a bar chart for per-config
EPEff comparisons and a line chart for sweep curves over an ordered
category axis.
"""

from __future__ import annotations

import json
from typing import Sequence

from .crossmatch import CrossmatchOutcome
from .harness import HISTOGRAM_EDGES, EpeffReport, PValueStats

__all__ = [
    "sweep_csv",
    "histogram_csv",
    "outcome_json",
    "stats_json",
    "svg_bar_chart",
    "svg_line_chart",
]

SWEEP_COLUMNS = ("label", "mean_p", "energy", "epeff", "cores")


def _num(x) -> str:
    return repr(float(x))


def _field(text: str) -> str:
    """text as an RFC 4180 CSV field: quoted, quotes doubled, if it holds , " or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def sweep_csv(reports: Sequence[EpeffReport]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for r in reports:
        lines.append(",".join([_field(r.label), _num(r.mean_p), _num(r.energy),
                               _num(r.epeff), str(r.resources.cores)]))
    return "\n".join(lines) + "\n"


def histogram_csv(stats: PValueStats) -> str:
    lines = ["bin_low,bin_high,count"]
    for low, high, count in zip(HISTOGRAM_EDGES, HISTOGRAM_EDGES[1:], stats.histogram):
        lines.append(f"{_num(low)},{_num(high)},{int(count)}")
    return "\n".join(lines) + "\n"


def outcome_json(outcome: CrossmatchOutcome) -> str:
    """The outcome's fields; log10_p only when the p-value underflowed."""
    doc = {"n": outcome.n, "a_obs": outcome.a_obs,
           "p_value": outcome.p_value, "method": outcome.method}
    if outcome.log10_p is not None:
        doc["log10_p"] = outcome.log10_p
    return json.dumps(doc, indent=2) + "\n"


def stats_json(stats: PValueStats, extra: dict | None = None) -> str:
    doc = {"num_trials": int(stats.p_values.size), "mean_p": stats.mean_p,
           "ks_vs_uniform": stats.ks_vs_uniform, "d_plus": stats.d_plus}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"


# --- SVG ------------------------------------------------------------------

_W, _H = 640, 400
_MARGIN = dict(left=70, right=20, top=40, bottom=60)


def _text(x, y, size: int, text: str, anchor: str = "middle", more: str = "") -> str:
    """One <text> element, its text XML-escaped by hand: importing xml.sax costs 1 MB."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{x}" y="{y}" font-size="{size}" text-anchor="{anchor}" '
            f'font-family="sans-serif"{more}>{text}</text>')


def _svg_open(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        _text(f"{_W / 2:.1f}", 24, 16, title),
    ]


def _axes(parts: list[str], x_label: str, y_label: str, y_max: float) -> None:
    x0, y0 = _MARGIN["left"], _H - _MARGIN["bottom"]
    x1, y1 = _W - _MARGIN["right"], _MARGIN["top"]
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    parts.append(_text(f"{(x0 + x1) / 2:.1f}", _H - 14, 12, x_label))
    parts.append(_text(18, f"{(y0 + y1) / 2:.1f}", 12, y_label,
                       more=f' transform="rotate(-90 18 {(y0 + y1) / 2:.1f})"'))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y0 - frac * (y0 - y1)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:.1f}" x2="{x0}" y2="{y:.1f}" stroke="black"/>')
        parts.append(_text(x0 - 8, f"{y + 4:.1f}", 10, f"{frac * y_max:.3g}", "end"))


def svg_bar_chart(labels: Sequence[str], values: Sequence[float], title: str,
                  y_label: str) -> str:
    if len(labels) != len(values) or not labels:
        raise ValueError("labels and values must be non-empty and equal length")
    y_max = max(max(values), 1e-300)
    parts = _svg_open(title)
    _axes(parts, "", y_label, y_max)
    x0, y0 = _MARGIN["left"], _H - _MARGIN["bottom"]
    span = _W - _MARGIN["left"] - _MARGIN["right"]
    height = y0 - _MARGIN["top"]
    slot = span / len(labels)
    for i, (label, value) in enumerate(zip(labels, values)):
        h = height * (value / y_max)
        x = x0 + i * slot + 0.15 * slot
        parts.append(f'<rect x="{x:.1f}" y="{y0 - h:.1f}" width="{0.7 * slot:.1f}" '
                     f'height="{h:.1f}" fill="#4878a8"/>')
        parts.append(_text(f"{x0 + (i + 0.5) * slot:.1f}", y0 + 16, 11, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_line_chart(x_labels: Sequence[str], series: dict, title: str,
                   x_label: str, y_label: str) -> str:
    """Lines over an ordered category axis; series maps name -> values."""
    if not x_labels or not series:
        raise ValueError("need at least one x position and one series")
    y_max = max(max(vals) for vals in series.values())
    y_max = max(y_max, 1e-300)
    parts = _svg_open(title)
    _axes(parts, x_label, y_label, y_max)
    x0, y0 = _MARGIN["left"], _H - _MARGIN["bottom"]
    span = _W - _MARGIN["left"] - _MARGIN["right"]
    height = y0 - _MARGIN["top"]
    slot = span / len(x_labels)
    colors = ("#4878a8", "#c05a42", "#5a9a5a", "#8a6aaa")
    for i, label in enumerate(x_labels):
        parts.append(_text(f"{x0 + (i + 0.5) * slot:.1f}", y0 + 16, 11, label))
    for k, (name, vals) in enumerate(series.items()):
        if len(vals) != len(x_labels):
            raise ValueError(f"series {name!r} length {len(vals)} != {len(x_labels)}")
        pts = " ".join(f"{x0 + (i + 0.5) * slot:.1f},{y0 - height * (v / y_max):.1f}"
                       for i, v in enumerate(vals))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        for i, v in enumerate(vals):
            parts.append(f'<circle cx="{x0 + (i + 0.5) * slot:.1f}" '
                         f'cy="{y0 - height * (v / y_max):.1f}" r="3" fill="{color}"/>')
        parts.append(_text(f"{_W - _MARGIN['right']:.1f}", _MARGIN["top"] + 14 * (k + 1), 11,
                           name, "end", f' fill="{color}"'))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
