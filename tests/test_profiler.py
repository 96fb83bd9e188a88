"""Profiler: per-layer counts, MAC formulas, scaling, audit, checkpoint cross-audit."""

import numpy as np

from ccaps.model import CapsuleNetwork, ModelConfig
from ccaps.profiler import (
    PUBLISHED_CONVBLOCK_PARAMS,
    PUBLISHED_FLOPS_TOTAL,
    audit_reported_totals,
    count_flops,
    count_params,
    format_profile,
    layer_reports,
    profile_csv,
)

DEFAULT = ModelConfig()


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
    assert flops.routing_macs_per_iteration == 2 * 512 * 10 * 16


def test_counts_are_additive_over_layers():
    summary = count_params(DEFAULT)
    assert summary.total == sum(r.params for r in summary.reports)

    smaller = ModelConfig(conv_channels=(16, 32), conv_strides=(1, 2))
    diff = summary.conv_block_total - count_params(smaller).conv_block_total
    removed = [r.params for r in summary.reports[4:12]]  # conv3..bn6
    assert diff == sum(removed)


def test_doubling_resolution_quadruples_conv_macs():
    base = count_flops(DEFAULT)
    big = count_flops(ModelConfig(image_size=64))
    for (name_a, macs_a), (name_b, macs_b) in zip(base.conv_macs, big.conv_macs):
        assert name_a == name_b
        assert macs_b == 4 * macs_a


def test_counts_are_config_pure():
    a = count_params(ModelConfig())
    b = count_params(ModelConfig())
    assert a == b


def test_audit_rows_and_signed_differences():
    audit = audit_reported_totals(DEFAULT)
    assert len(audit.conv_block_rows) == 12
    assert all(diff == 0 for *_, diff in audit.conv_block_rows)
    assert audit.param_total == 2_044_496
    assert audit.param_total_without_class_caps == 733_776
    assert audit.class_caps_params == 1_310_720
    assert audit.diff_vs_text_total == 2_044_496 - 734_800
    assert audit.diff_vs_table_total == 2_044_496 - 780_000
    assert audit.diff_vs_text_total_pct > 0
    assert abs(audit.diff_vs_published_flops_pct) <= 1.2
    assert audit.conv_mac_total == 18_137_088
    text = audit.format_text()
    assert "+" in text and "ClassCaps" in text
    assert f"{PUBLISHED_FLOPS_TOTAL:,}" in text


def test_every_trainable_checkpoint_array_in_exactly_one_report():
    net = CapsuleNetwork(DEFAULT, seed=0)
    trainable = set(net.trainable())
    reports = layer_reports(DEFAULT)
    claimed = [name for r in reports for name in r.param_names]
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
        total = sum(net.params[p].data.size for p in report.param_names)
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
