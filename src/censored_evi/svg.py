"""Minimal deterministic SVG line charts (no plotting dependency).

Output is a fixed 960x540 viewBox with linear axes, one polyline per
series from an 8-color palette, point markers, and a legend.  Every
element is written by ``_el`` with fixed number formatting, so identical
input yields identical bytes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["Series", "render_chart"]

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)

# Plot rectangle inside the 960x540 canvas; the right margin holds the legend.
_X0, _X1 = 70.0, 760.0
_Y0, _Y1 = 40.0, 490.0


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[tuple[float, float], ...]


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _el(name: str, *, text: str | None = None, **attrs) -> str:
    """One element: its attributes in order (``_`` in a name is written
    ``-``, a float as ``_fmt`` writes it), and ``text``, escaped, if given."""
    head = "".join(f' {key.replace("_", "-")}="{_fmt(v) if isinstance(v, float) else v}"'
                   for key, v in attrs.items())
    return f"<{name}{head}/>" if text is None else f"<{name}{head}>{_esc(text)}</{name}>"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    norm = raw / mag
    if norm < 1.5:
        step = mag
    elif norm < 3.5:
        step = 2.0 * mag
    elif norm < 7.5:
        step = 5.0 * mag
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [i * step for i in range(first, last + 1)]


def _span(values: list[float], label: str) -> tuple[float, float]:
    """The axis ends: the values' range, padded apart.  A width that is not
    a finite normal float has no tick step (it overflows or underflows), so
    it is a ValueError."""
    lo, hi = min(values), max(values)
    pad = 0.5 * max(1.0, abs(lo)) if lo == hi else 0.05 * (hi - lo)
    if not sys.float_info.min <= (hi + pad) - (lo - pad) < math.inf:
        raise ValueError(f"cannot chart {label} values from {lo!r} to {hi!r}: "
                         "the axis span is out of float range")
    return lo - pad, hi + pad


def render_chart(series: list[Series], x_label: str, y_label: str) -> str:
    """Render series as an SVG document string.

    Non-finite points must already be filtered out; a series with a
    single point is drawn as a marker only.
    """
    drawable = [s for s in series if s.points]
    if not drawable:
        raise ValueError("no drawable data (all points missing or non-finite)")
    xs = [p[0] for s in drawable for p in s.points]
    ys = [p[1] for s in drawable for p in s.points]
    xlo, xhi = _span(xs, x_label)
    ylo, yhi = _span(ys, y_label)

    def sx(x: float) -> float:
        return _X0 + (x - xlo) / (xhi - xlo) * (_X1 - _X0)

    def sy(y: float) -> float:
        return _Y1 - (y - ylo) / (yhi - ylo) * (_Y1 - _Y0)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 960 540" '
        'font-family="sans-serif" font-size="13">',
        _el("rect", x=0, y=0, width=960, height=540, fill="white"),
    ]
    # Grid and ticks.
    grid = {"stroke": "#dddddd", "stroke_width": 1}
    for tx in _nice_ticks(xlo, xhi):
        out.append(_el("line", x1=sx(tx), y1=_Y0, x2=sx(tx), y2=_Y1, **grid))
        out.append(_el("text", x=sx(tx), y=_Y1 + 18, text_anchor="middle", text=f"{tx:g}"))
    for ty in _nice_ticks(ylo, yhi):
        out.append(_el("line", x1=_X0, y1=sy(ty), x2=_X1, y2=sy(ty), **grid))
        out.append(_el("text", x=_X0 - 8, y=sy(ty), text_anchor="end",
                       dominant_baseline="middle", text=f"{ty:g}"))
    # Axes frame and labels.
    mid = (_Y0 + _Y1) / 2
    out += [
        _el("rect", x=_X0, y=_Y0, width=_X1 - _X0, height=_Y1 - _Y0, fill="none",
            stroke="black", stroke_width=1),
        _el("text", x=(_X0 + _X1) / 2, y=_Y1 + 40, text_anchor="middle", text=x_label),
        _el("text", x=18, y=mid, text_anchor="middle", transform=f"rotate(-90 18 {_fmt(mid)})",
            text=y_label),
    ]
    # Series, then the legend in the right margin.
    legend = []
    for i, s in enumerate(drawable):
        color = PALETTE[i % len(PALETTE)]
        pts = [(sx(x), sy(y)) for x, y in s.points]
        if len(pts) >= 2:
            out.append(_el("polyline", points=" ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts),
                           fill="none", stroke=color, stroke_width=2))
        out += [_el("circle", cx=x, cy=y, r="2.5", fill=color) for x, y in pts]
        y = _Y0 + 10.0 + 22.0 * i
        legend.append(_el("line", x1=_X1 + 16, y1=y, x2=_X1 + 40, y2=y, stroke=color,
                          stroke_width=2))
        legend.append(_el("text", x=_X1 + 46, y=y, dominant_baseline="middle", text=s.label))
    out += [*legend, "</svg>"]
    return "\n".join(out) + "\n"
