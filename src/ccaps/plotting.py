"""Deterministic SVG line plots for training metrics.

Hand-rolled on purpose: identical input must yield byte-identical SVG
(no timestamps, no library version strings), and the data must survive a
round trip. Every data point is drawn as a circle that also carries the
exact source values in ``data-x`` / ``data-y`` attributes, so a parser
can recover the plotted series without geometric inversion.
"""

from __future__ import annotations

from pathlib import Path

from .checkpoint import write_atomic
from .train import read_metrics_csv

__all__ = ["render_series_svg", "plot_metrics_csv", "PlotError"]

WIDTH, HEIGHT = 640, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 20, 20, 50
TICKS = 5


class PlotError(Exception):
    """Nothing to plot or malformed input."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _axis_ticks(lo: float, hi: float) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (TICKS - 1) for i in range(TICKS)]


def render_series_svg(xs: list[float], ys: list[float], x_label: str, y_label: str) -> str:
    """One polyline plus per-point markers; axes labelled and ticked."""
    if len(xs) != len(ys) or not xs:
        raise PlotError("need matching, non-empty x and y series")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):
        return MARGIN_LEFT + (x - x_lo) / span_x * plot_w

    def sy(y):
        return MARGIN_TOP + plot_h - (y - y_lo) / span_y * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
    ]
    for tick in _axis_ticks(x_lo, x_hi):
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{MARGIN_TOP + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _axis_ticks(y_lo, y_hi):
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{py:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 10}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.2f})">{y_label}</text>'
    )
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="#1f77b4" '
            f'data-x="{x!r}" data-y="{y!r}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_metrics_csv(csv_path: str | Path, out_dir: str | Path) -> list[Path]:
    """Render an SVG per metric column that has data; error if none has any.

    Output files: loss.svg, top1.svg, top5.svg under `out_dir`. A metric
    column with no values (e.g. a run that never evaluated) is skipped.
    """
    rows = read_metrics_csv(csv_path)
    if not rows:
        raise PlotError(f"{csv_path}: no data rows to plot")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    series = {
        "loss": [(r.epoch, r.loss) for r in rows],
        "top1": [(r.epoch, r.top1) for r in rows if r.top1 is not None],
        "top5": [(r.epoch, r.top5) for r in rows if r.top5 is not None],
    }
    written: list[Path] = []
    for name, pairs in series.items():
        if not pairs:
            continue
        xs = [float(e) for e, _ in pairs]
        ys = [float(v) for _, v in pairs]
        svg = render_series_svg(xs, ys, "epoch", name)
        written.append(write_atomic(out_dir / f"{name}.svg", svg.encode()))
    if not written:
        raise PlotError(f"{csv_path}: no plottable metric columns")
    return written
