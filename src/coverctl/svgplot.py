"""Hand-rolled SVG line charts: axes, ticks, one series over its steps.

Self-contained output, no plotting dependency; these charts are for eyeball
inspection and never sit on the critical path of any check. A chart reads
its series as given, never a trace file.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # the plot area
_COLOR = "#1f77b4"


def _ticks(lo: float, hi: float) -> list[float]:
    # five even ticks; line_chart has already widened a flat range to lo + 1
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_chart(out_dir, label: str, ys, title: str, y_marker: float | None = None) -> None:
    """Write ``<label>.svg`` into ``out_dir``: the series ``ys`` over the steps
    1..len(ys), its y axis named ``label``. Only the at most 2000 steps the
    line samples become Python floats, so a long series is not copied.

    ``y_marker`` draws a dashed horizontal reference line (e.g. a target).
    """
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = 1, max(len(ys), 2)  # a one-step series spans [1, 2]
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if y_marker is not None:
        y_lo, y_hi = min(y_lo, y_marker), max(y_hi, y_marker)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * _PW

    def py(y: float) -> float:
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * _PH

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tx:.4g}</text>')
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{ty:.4g}</text>')
    parts.append(f'<text x="{_ML + _PW / 2:.1f}" y="{_H - 8}" text-anchor="middle">step</text>')
    parts.append(
        f'<text x="16" y="{_MT + _PH / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + _PH / 2:.1f})">{label}</text>'
    )
    if y_marker is not None:
        y = py(y_marker)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="#888" stroke-dasharray="6,4"/>'
        )
    step = max(1, len(ys) // 2000)  # cap file size on long traces
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                   for x, y in zip(range(1, len(ys) + 1)[::step], ys[::step].tolist()))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" stroke-width="1.5"/>')
    parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16}" text-anchor="end" '
                 f'fill="{_COLOR}">{label}</text>')
    parts.append("</svg>")
    (Path(out_dir) / f"{label}.svg").write_text("\n".join(parts) + "\n")


def plot_series(out_dir, coverage, regret, phi: float) -> None:
    """``coverage.svg``, against the target ``phi``, and ``regret.svg`` in
    ``out_dir``, from one replica's cumulative series (one value per step)."""
    line_chart(out_dir, "coverage", coverage, "Cumulative coverage", y_marker=phi)
    line_chart(out_dir, "regret", regret, "Cumulative cost regret")
