"""SVG rendering: determinism, round trip, error cases."""

import re

import pytest

from ccaps.plotting import PlotError, plot_metrics_csv, render_series_svg
from ccaps.train import MetricsRow, write_metrics_csv

_POINT_RE = re.compile(r"<circle[^>]*data-x=\"([^\"]+)\"\s+data-y=\"([^\"]+)\"")


def extract_series(svg_text: str) -> tuple[list[float], list[float]]:
    """Recover the exact plotted values from the markers' data-x / data-y attributes."""
    xs, ys = [], []
    for match in _POINT_RE.finditer(svg_text):
        xs.append(float(match.group(1)))
        ys.append(float(match.group(2)))
    return xs, ys


def test_identical_input_identical_bytes():
    xs, ys = [1.0, 2.0, 3.0], [5.0, 4.5, 4.25]
    a = render_series_svg(xs, ys, "epoch", "loss")
    b = render_series_svg(xs, ys, "epoch", "loss")
    assert a == b


def test_axes_are_labelled():
    svg = render_series_svg([1.0, 2.0], [3.0, 4.0], "epoch", "top1")
    assert ">epoch</text>" in svg
    assert ">top1</text>" in svg


def test_round_trip_recovers_exact_values():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [5.039728, 4.982113, 4.7, 4.66666666]
    svg = render_series_svg(xs, ys, "epoch", "loss")
    back_x, back_y = extract_series(svg)
    assert back_x == xs
    assert back_y == ys


def test_single_point_series_renders():
    svg = render_series_svg([1.0], [2.0], "epoch", "loss")
    assert "<circle" in svg


def test_empty_series_is_error():
    with pytest.raises(PlotError):
        render_series_svg([], [], "epoch", "loss")


def test_plot_metrics_csv_writes_three_files(tmp_path):
    rows = [
        MetricsRow(epoch=1, loss=5.0, top1=10.0, top5=50.0),
        MetricsRow(epoch=2, loss=4.5, top1=12.0, top5=55.0),
    ]
    csv = write_metrics_csv(tmp_path / "m.csv", rows)
    written = plot_metrics_csv(csv, tmp_path / "plots")
    assert sorted(p.name for p in written) == ["loss.svg", "top1.svg", "top5.svg"]
    for path in written:
        xs, _ = extract_series(path.read_text())
        assert xs == [1.0, 2.0]


def test_plot_metrics_csv_skips_missing_metrics(tmp_path):
    rows = [MetricsRow(epoch=1, loss=5.0), MetricsRow(epoch=2, loss=4.0)]
    csv = write_metrics_csv(tmp_path / "m.csv", rows)
    written = plot_metrics_csv(csv, tmp_path / "plots")
    assert [p.name for p in written] == ["loss.svg"]


def test_plot_empty_but_headed_csv_is_error(tmp_path):
    csv = write_metrics_csv(tmp_path / "m.csv", [])
    with pytest.raises(PlotError, match="no data rows"):
        plot_metrics_csv(csv, tmp_path / "plots")


def test_plot_round_trip_matches_csv_values(tmp_path):
    rows = [
        MetricsRow(epoch=1, loss=5.03972321, top1=11.11, top5=49.99),
        MetricsRow(epoch=2, loss=4.5, top1=13.0, top5=52.5),
        MetricsRow(epoch=3, loss=4.25, top1=14.5, top5=60.0),
    ]
    csv = write_metrics_csv(tmp_path / "m.csv", rows)
    from ccaps.train import read_metrics_csv

    parsed = read_metrics_csv(csv)
    written = {p.name: p for p in plot_metrics_csv(csv, tmp_path / "plots")}
    xs, ys = extract_series(written["loss.svg"].read_text())
    assert ys == [r.loss for r in parsed]
    xs1, y1 = extract_series(written["top1.svg"].read_text())
    assert y1 == [r.top1 for r in parsed]
    assert xs == xs1 == [1.0, 2.0, 3.0]
