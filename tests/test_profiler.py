"""Profiler: per-layer counts, MAC formulas, scaling, audit, checkpoint cross-audit."""

import numpy as np

from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.profiler import (
    PUBLISHED_CONVBLOCK_PARAMS,
    PUBLISHED_FLOPS_TOTAL,
    count_flops,
    count_params,
    format_profile,
    layer_reports,
    profile_csv,
)

DEFAULT = ModelConfig()


def _param_names(report_name: str) -> tuple[str, ...]:
    """The checkpoint arrays a report row counts, by the network's naming."""
    kind, _, index = report_name.partition("-")
    return {
        "Conv2d": (f"conv{index}.weight",),
        "BatchNorm2d": (f"conv{index}.bn.gamma", f"conv{index}.bn.beta"),
        "PrimaryCaps": ("primary.weight",),
        "ClassCaps": ("class_caps.weight",),
    }[kind]


def test_conv_block_per_layer_counts_match_reference():
    reports = [
        r for r in layer_reports(DEFAULT) if r.name.startswith(("Conv2d", "BatchNorm2d"))
    ]
    assert tuple(r.params for r in reports) == PUBLISHED_CONVBLOCK_PARAMS


def test_headline_individual_layers():
    by_name = {r.name: r for r in layer_reports(DEFAULT)}
    assert by_name["Conv2d-1"].params == 432 == 3 * 16 * 9
    assert by_name["Conv2d-6"].params == 73_728
    assert by_name["BatchNorm2d-6"].params == 256
    assert by_name["Conv2d-1"].macs == 442_368 == 3 * 16 * 9 * 32 * 32
    assert by_name["PrimaryCaps"].params == 128 * 512 * 9 == 589_824
    assert by_name["ClassCaps"].params == 10 * 512 * 16 * 16 == 1_310_720


def test_totals():
    summary = count_params(DEFAULT)
    assert summary.conv_block_total == 143_952
    assert summary.total == 143_952 + 589_824 + 1_310_720 == 2_044_496


def test_conv_mac_total_and_flop_conventions():
    flops = count_flops(DEFAULT)
    assert flops.conv_total == 18_137_088
    assert flops.doubled_total == 2 * 18_137_088
    assert flops.votes_macs == 512 * 10 * 16 * 16
    # routing runs the vote sum on each of T iterations, the agreement on T - 1
    assert flops.routing_sum_macs == flops.routing_agreement_macs == 512 * 10 * 16


def test_format_profile_routing_lines_say_what_the_node_runs():
    lines = [" ".join(line.split()) for line in format_profile(DEFAULT).splitlines()]
    assert "routing vote-sum MACs/iter 81,920 (auxiliary)" in lines
    assert "routing agreement MACs/iter 81,920 (on T - 1 of T iterations)" in lines
    assert not any(line.startswith("routing MACs/iter") for line in lines)


def test_counts_are_additive_over_layers():
    summary = count_params(DEFAULT)
    assert summary.total == sum(r.params for r in summary.reports)

    smaller = ModelConfig(conv_channels=(16, 32), conv_strides=(1, 2))
    diff = summary.conv_block_total - count_params(smaller).conv_block_total
    removed = [r.params for r in summary.reports[4:12]]  # conv3..bn6
    assert diff == sum(removed)


def test_doubling_resolution_quadruples_conv_macs():
    def conv_rows(config):
        reports = layer_reports(config)
        return [(r.name, r.macs) for r in reports if r.name.startswith(("Conv2d", "PrimaryCaps"))]

    base, big = conv_rows(DEFAULT), conv_rows(ModelConfig(image_size=64))
    assert len(base) == len(big) == 7
    for (name_a, macs_a), (name_b, macs_b) in zip(base, big):
        assert name_a == name_b
        assert macs_b == 4 * macs_a
    assert count_flops(ModelConfig(image_size=64)).conv_total == 4 * count_flops(DEFAULT).conv_total


def test_counts_are_config_pure():
    a = count_params(ModelConfig())
    b = count_params(ModelConfig())
    assert a == b


def test_audit_rows_and_signed_differences():
    lines = format_profile(DEFAULT).splitlines()
    header = lines[0].split()
    assert header == ["layer", "in", "out", "stride", "features", "params", "published", "MACs"]
    rows = {line.split()[0]: line.split() for line in lines[1:15]}
    assert len(rows) == 14
    block = [name for name in rows if name.startswith(("Conv2d", "BatchNorm2d"))]
    assert [int(rows[name][6].replace(",", "")) for name in block] == list(PUBLISHED_CONVBLOCK_PARAMS)
    for name in block:
        assert rows[name][5] == rows[name][6]  # each conv-block row: params == published
    assert rows["PrimaryCaps"][6] == rows["ClassCaps"][6] == "-"
    text = "\n".join(lines)
    assert "  without ClassCaps" in text and "733,776" in text
    assert f"{2_044_496 - 734_800:+,}   (+178.24%)" in text
    assert f"{2_044_496 - 780_000:+,}   (+162.11%)" in text
    assert f"{18_137_088 - PUBLISHED_FLOPS_TOTAL:+,}   (-1.11%)" in text
    assert f"{PUBLISHED_FLOPS_TOTAL:,}" in text
    for total in ("2,044,496", "18,137,088"):  # each total printed once
        assert sum(total in line for line in lines) == 1
    thin = format_profile(ModelConfig(conv_channels=(4, 8), conv_strides=(1, 2)))
    assert "published" not in thin.splitlines()[0]  # no published column off the reference layout


def test_every_trainable_checkpoint_array_in_exactly_one_report():
    net = CapsuleNetwork(DEFAULT, seed=0)
    trainable = set(net.trainable())
    reports = layer_reports(DEFAULT)
    claimed = [name for r in reports for name in _param_names(r.name)]
    assert len(claimed) == len(set(claimed))  # no array claimed twice
    assert set(claimed) == trainable

    # and the analytic count matches the materialized parameter count exactly
    materialized = sum(t.data.size for t in net.trainable().values())
    assert materialized == count_params(DEFAULT).total


def test_report_param_counts_match_array_sizes_for_odd_config():
    cfg = ModelConfig(
        conv_channels=(4, 8),
        conv_strides=(1, 2),
        image_size=8,
        primary_channels=12,
        capsule_dim=4,
        num_classes=5,
        class_capsule_dim=6,
    )
    net = CapsuleNetwork(cfg, seed=1)
    by_name = {r.name: r for r in layer_reports(cfg)}
    for report in by_name.values():
        total = sum(net.params[p].data.size for p in _param_names(report.name))
        assert total == report.params, report.name


def test_format_profile_and_csv():
    text = format_profile(DEFAULT)
    assert "Conv2d-1" in text and "ClassCaps" in text
    assert "143,952" in text and "18,137,088" in text
    csv = profile_csv(DEFAULT)
    lines = csv.strip().splitlines()
    assert lines[0] == "layer,params,macs,out_shape"
    assert any(line.startswith("Conv2d-6,73728,") for line in lines)
    assert lines[-1].startswith("total,2044496,18137088")
