"""Hand-rolled SVG line charts: axes, ticks, one series.

Self-contained output, no plotting dependency; these charts are for eyeball
inspection and never sit on the critical path of any check.
"""

from __future__ import annotations

from pathlib import Path

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 28, 44
_COLOR = "#1f77b4"


def _ticks(lo: float, hi: float) -> list[float]:
    # five even ticks; line_chart has already widened a flat range to lo + 1
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_chart(path, label: str, xs, ys, title: str, xlabel: str, ylabel: str,
               y_marker: float | None = None) -> None:
    """Write one chart of the series ``ys`` over ``xs``, named ``label``.

    ``y_marker`` draws a dashed horizontal reference line (e.g. a target).
    """
    ys_all = ys if y_marker is None else [*ys, y_marker]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return _MT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

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
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{ylabel}</text>'
    )
    if y_marker is not None:
        y = py(y_marker)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'stroke="#888" stroke-dasharray="6,4"/>'
        )
    step = max(1, len(xs) // 2000)  # cap file size on long traces
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in list(zip(xs, ys))[::step])
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" stroke-width="1.5"/>')
    parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16}" text-anchor="end" '
                 f'fill="{_COLOR}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def plot_trace_csv(csv_text: str, out_dir, phi: float) -> None:
    """Coverage and cumulative-regret charts from one serialized trace."""
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    it = header.index("t")
    icov = header.index("coverage_cum")
    ireg = header.index("regret_cum")
    ts, cov, reg = [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        ts.append(float(cells[it]))
        cov.append(float(cells[icov]))
        reg.append(float(cells[ireg]))
    out_dir = Path(out_dir)
    line_chart(out_dir / "coverage.svg", "coverage", ts, cov,
               "Cumulative coverage", "step", "coverage", y_marker=phi)
    line_chart(out_dir / "regret.svg", "regret", ts, reg,
               "Cumulative cost regret", "step", "regret")
