"""Exact parameter and FLOP accounting, straight from the configuration.

Counts are closed-form functions of :class:`ModelConfig` (never measured):
convolutions hold in*out*k^2 weights (no bias anywhere in this network),
batch norm holds 2 trainable values per feature, and the class-capsule
transform holds parents*children*in_dim*out_dim.

FLOPs are reported as multiply-accumulates (1 MAC = 1 FLOP); a doubled
figure (2 FLOPs per MAC) is emitted alongside for transparency. The
headline total covers the convolutions only; batch-norm/activation
elementwise work, vote prediction, and routing arithmetic are broken out
as auxiliary lines, per common profiler convention.

The printed profile is one layer table, then each total once. A
``published`` column holds the reference CoCa conv-block parameter table
(only when a configuration has exactly those twelve rows); the parameter
total is compared with both stated totals (734,800 in the description,
780K in the comparison table) and the conv MAC total with the 18.34M FLOPs
claim, as signed differences. The model is never adjusted to agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig

__all__ = [
    "LayerReport",
    "ParamSummary",
    "FlopSummary",
    "layer_reports",
    "count_params",
    "count_flops",
    "format_profile",
    "profile_csv",
    "PUBLISHED_CONVBLOCK_PARAMS",
    "PUBLISHED_PARAM_TOTAL_TEXT",
    "PUBLISHED_PARAM_TOTAL_TABLE",
    "PUBLISHED_FLOPS_TOTAL",
]

# Published reference figures for the default configuration.
PUBLISHED_CONVBLOCK_PARAMS = (432, 32, 4608, 64, 9216, 64, 18432, 128, 36864, 128, 73728, 256)
PUBLISHED_PARAM_TOTAL_TEXT = 734_800  # architecture-description total
PUBLISHED_PARAM_TOTAL_TABLE = 780_000  # comparison-table total ("780K")
PUBLISHED_FLOPS_TOTAL = 18_340_000  # comparison-table FLOPs ("18.34M")


@dataclass(frozen=True)
class LayerReport:
    name: str
    params: int
    macs: int  # per 3x32x32-style single input, convolution/vote MACs only
    out_shape: tuple[int, ...]
    in_channels: int | None = None
    out_channels: int | None = None
    stride: int | None = None
    features: int | None = None  # batch-norm feature count


@dataclass(frozen=True)
class ParamSummary:
    reports: tuple[LayerReport, ...]
    total: int
    conv_block_total: int
    class_caps_total: int


@dataclass(frozen=True)
class FlopSummary:
    conv_total: int
    votes_macs: int
    routing_sum_macs: int  # coupling-weighted vote sum, on each routing iteration
    routing_agreement_macs: int  # agreement dot products, on T - 1 of T iterations
    elementwise_aux: int  # batch norm + relu elementwise ops
    doubled_total: int  # conv_total under 2 FLOPs per MAC


def layer_reports(config: ModelConfig = ModelConfig()) -> list[LayerReport]:
    """One report per layer; conv MACs use the config's input resolution."""
    k = config.kernel_size
    sizes = config.conv_spatial_sizes()
    reports: list[LayerReport] = []
    in_c = config.in_channels
    for i, (out_c, stride, size) in enumerate(
        zip(config.conv_channels, config.conv_strides, sizes), start=1
    ):
        reports.append(
            LayerReport(
                name=f"Conv2d-{i}",
                params=in_c * out_c * k * k,
                macs=in_c * out_c * k * k * size * size,
                out_shape=(out_c, size, size),
                in_channels=in_c,
                out_channels=out_c,
                stride=stride,
            )
        )
        reports.append(
            LayerReport(
                name=f"BatchNorm2d-{i}",
                params=2 * out_c,
                macs=0,
                out_shape=(out_c, size, size),
                features=out_c,
            )
        )
        in_c = out_c
    grid = config.feature_grid
    reports.append(
        LayerReport(
            name="PrimaryCaps",
            params=in_c * config.primary_channels * k * k,
            macs=in_c * config.primary_channels * k * k * grid * grid,
            out_shape=(config.num_primary_capsules, config.capsule_dim),
            in_channels=in_c,
            out_channels=config.primary_channels,
            stride=1,
        )
    )
    reports.append(
        LayerReport(
            name="ClassCaps",
            params=config.num_classes
            * config.num_primary_capsules
            * config.capsule_dim
            * config.class_capsule_dim,
            macs=config.num_primary_capsules
            * config.num_classes
            * config.capsule_dim
            * config.class_capsule_dim,
            out_shape=(config.num_classes, config.class_capsule_dim),
            in_channels=config.num_primary_capsules,
            out_channels=config.num_classes,
        )
    )
    return reports


def count_params(config: ModelConfig = ModelConfig()) -> ParamSummary:
    reports = tuple(layer_reports(config))
    conv_block = sum(r.params for r in reports if r.name.startswith(("Conv2d", "BatchNorm2d")))
    primary = next(r.params for r in reports if r.name == "PrimaryCaps")
    class_caps = next(r.params for r in reports if r.name == "ClassCaps")
    return ParamSummary(
        reports=reports,
        total=conv_block + primary + class_caps,
        conv_block_total=conv_block,
        class_caps_total=class_caps,
    )


def count_flops(config: ModelConfig = ModelConfig()) -> FlopSummary:
    reports = layer_reports(config)
    conv_total = sum(r.macs for r in reports if r.name.startswith(("Conv2d", "PrimaryCaps")))
    votes = next(r.macs for r in reports if r.name == "ClassCaps")
    # s = c @ u on every iteration, the agreement u @ y between two iterations
    routing = config.num_primary_capsules * config.num_classes * config.class_capsule_dim
    sizes = config.conv_spatial_sizes()
    elementwise = sum(
        2 * c * s * s for c, s in zip(config.conv_channels, sizes)
    )  # batch norm scale+shift and relu, per channel map
    return FlopSummary(
        conv_total=conv_total,
        votes_macs=votes,
        routing_sum_macs=routing,
        routing_agreement_macs=routing,
        elementwise_aux=elementwise,
        doubled_total=2 * conv_total,
    )


def _count_line(label: str, value: int, note: str = "") -> str:
    return f"{label:<32}{value:>12,}{note}"


def _versus_line(label: str, value: int, published: int) -> str:
    diff = value - published
    return f"{label:<32}{diff:>+12,}   ({100.0 * diff / published:+.2f}%)"


def format_profile(config: ModelConfig = ModelConfig()) -> str:
    """One layer table, then each total once with its published comparison."""
    params = count_params(config)
    flops = count_flops(config)
    block = [r.name for r in params.reports if r.name.startswith(("Conv2d", "BatchNorm2d"))]
    # The published per-layer table describes the reference layout only.
    published = dict(zip(block, PUBLISHED_CONVBLOCK_PARAMS)) if len(block) == len(PUBLISHED_CONVBLOCK_PARAMS) else {}
    header = f"{'layer':<16}{'in':>5}{'out':>6}{'stride':>8}{'features':>10}{'params':>12}"
    lines = [header + (f"{'published':>12}" if published else "") + f"{'MACs':>14}"]
    for r in params.reports:
        row = (
            f"{r.name:<16}"
            f"{r.in_channels if r.in_channels is not None else '-':>5}"
            f"{r.out_channels if r.out_channels is not None else '-':>6}"
            f"{r.stride if r.stride is not None else '-':>8}"
            f"{r.features if r.features is not None else '-':>10}"
            f"{r.params:>12,}"
        )
        if published:
            row += f"{f'{published[r.name]:,}' if r.name in published else '-':>12}"
        lines.append(row + f"{r.macs:>14,}")
    total = params.total
    lines += [
        "",
        _count_line("conv-block params", params.conv_block_total),
        _count_line("total params", total),
        _count_line("  without ClassCaps", total - params.class_caps_total),
        _versus_line(f"  vs {PUBLISHED_PARAM_TOTAL_TEXT:,} (description)", total, PUBLISHED_PARAM_TOTAL_TEXT),
        _versus_line(
            f"  vs {PUBLISHED_PARAM_TOTAL_TABLE:,} (comparison table)", total, PUBLISHED_PARAM_TOTAL_TABLE
        ),
        "",
        _count_line("convolution MACs", flops.conv_total, "   (headline, convention: 1 MAC = 1 FLOP)"),
        _versus_line(f"  vs {PUBLISHED_FLOPS_TOTAL:,} published FLOPs", flops.conv_total, PUBLISHED_FLOPS_TOTAL),
        _count_line("  as 2 FLOPs per MAC", flops.doubled_total),
        _count_line("vote MACs", flops.votes_macs, "   (auxiliary)"),
        _count_line("routing vote-sum MACs/iter", flops.routing_sum_macs, "   (auxiliary)"),
        _count_line(
            "routing agreement MACs/iter", flops.routing_agreement_macs, "   (on T - 1 of T iterations)"
        ),
        _count_line("elementwise aux ops", flops.elementwise_aux, "   (batch norm + relu)"),
    ]
    return "\n".join(lines)


def profile_csv(config: ModelConfig = ModelConfig()) -> str:
    params = count_params(config)
    lines = ["layer,params,macs,out_shape"]
    for r in params.reports:
        shape = "x".join(str(d) for d in r.out_shape)
        lines.append(f"{r.name},{r.params},{r.macs},{shape}")
    lines.append(f"total,{params.total},{count_flops(config).conv_total},")
    return "\n".join(lines) + "\n"
