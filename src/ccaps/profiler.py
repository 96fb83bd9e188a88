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

The audit compares the computed totals against the figures published for
the reference CoCa configuration: the per-layer conv-block parameter
table, the two stated parameter totals (734,800 in the architecture
description, 780K in the comparison table), and the 18.34M FLOPs claim.
It reports signed differences and isolates the class-capsule
contribution; it never adjusts the model to force agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelConfig

__all__ = [
    "LayerReport",
    "ParamSummary",
    "FlopSummary",
    "AuditReport",
    "layer_reports",
    "count_params",
    "count_flops",
    "audit_reported_totals",
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
    param_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class ParamSummary:
    reports: tuple[LayerReport, ...]
    total: int
    conv_block_total: int
    primary_total: int
    class_caps_total: int


@dataclass(frozen=True)
class FlopSummary:
    conv_macs: tuple[tuple[str, int], ...]  # per conv layer, input resolution fixed
    conv_total: int
    votes_macs: int
    routing_macs_per_iteration: int
    elementwise_aux: int  # batch norm + relu elementwise ops
    doubled_total: int  # conv_total under 2 FLOPs per MAC


@dataclass(frozen=True)
class AuditReport:
    conv_block_rows: tuple[tuple[str, int, int, int], ...]  # name, computed, published, diff
    param_total: int
    param_total_without_class_caps: int
    class_caps_params: int
    diff_vs_text_total: int
    diff_vs_text_total_pct: float
    diff_vs_table_total: int
    diff_vs_table_total_pct: float
    conv_mac_total: int
    diff_vs_published_flops_pct: float

    def format_text(self) -> str:
        lines = ["audit against published figures", ""]
        if self.conv_block_rows:
            lines.append(f"{'layer':<18}{'computed':>12}{'published':>12}{'diff':>8}")
            for name, computed, published, diff in self.conv_block_rows:
                lines.append(f"{name:<18}{computed:>12,}{published:>12,}{diff:>+8,}")
            lines.append("")
        lines += [
            f"parameter total (computed)         {self.param_total:>12,}",
            f"  without ClassCaps                {self.param_total_without_class_caps:>12,}",
            f"  ClassCaps contribution           {self.class_caps_params:>12,}",
            f"vs {PUBLISHED_PARAM_TOTAL_TEXT:,} (description)      "
            f"{self.diff_vs_text_total:>+12,}  ({self.diff_vs_text_total_pct:+.2f}%)",
            f"vs {PUBLISHED_PARAM_TOTAL_TABLE:,} (comparison table) "
            f"{self.diff_vs_table_total:>+12,}  ({self.diff_vs_table_total_pct:+.2f}%)",
            f"convolution MACs (computed)        {self.conv_mac_total:>12,}",
            f"vs {PUBLISHED_FLOPS_TOTAL:,} published FLOPs   "
            f"({self.diff_vs_published_flops_pct:+.2f}% under the 1 MAC = 1 FLOP convention)",
        ]
        return "\n".join(lines)


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
                param_names=(f"conv{i}.weight",),
            )
        )
        reports.append(
            LayerReport(
                name=f"BatchNorm2d-{i}",
                params=2 * out_c,
                macs=0,
                out_shape=(out_c, size, size),
                features=out_c,
                param_names=(f"conv{i}.bn.gamma", f"conv{i}.bn.beta"),
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
            param_names=("primary.weight",),
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
            param_names=("class_caps.weight",),
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
        primary_total=primary,
        class_caps_total=class_caps,
    )


def count_flops(config: ModelConfig = ModelConfig()) -> FlopSummary:
    reports = layer_reports(config)
    conv_rows = tuple(
        (r.name, r.macs) for r in reports if r.name.startswith(("Conv2d", "PrimaryCaps"))
    )
    conv_total = sum(m for _, m in conv_rows)
    votes = next(r.macs for r in reports if r.name == "ClassCaps")
    # one routing iteration: coupling-weighted vote sum + agreement dot products
    routing = 2 * config.num_primary_capsules * config.num_classes * config.class_capsule_dim
    sizes = config.conv_spatial_sizes()
    elementwise = sum(
        2 * c * s * s for c, s in zip(config.conv_channels, sizes)
    )  # batch norm scale+shift and relu, per channel map
    return FlopSummary(
        conv_macs=conv_rows,
        conv_total=conv_total,
        votes_macs=votes,
        routing_macs_per_iteration=routing,
        elementwise_aux=elementwise,
        doubled_total=2 * conv_total,
    )


def audit_reported_totals(config: ModelConfig = ModelConfig()) -> AuditReport:
    params = count_params(config)
    flops = count_flops(config)
    block_reports = [
        r for r in params.reports if r.name.startswith(("Conv2d", "BatchNorm2d"))
    ]
    rows = []
    if len(block_reports) == len(PUBLISHED_CONVBLOCK_PARAMS):
        for report, published in zip(block_reports, PUBLISHED_CONVBLOCK_PARAMS):
            rows.append((report.name, report.params, published, report.params - published))
    total = params.total
    return AuditReport(
        conv_block_rows=tuple(rows),
        param_total=total,
        param_total_without_class_caps=total - params.class_caps_total,
        class_caps_params=params.class_caps_total,
        diff_vs_text_total=total - PUBLISHED_PARAM_TOTAL_TEXT,
        diff_vs_text_total_pct=100.0 * (total - PUBLISHED_PARAM_TOTAL_TEXT) / PUBLISHED_PARAM_TOTAL_TEXT,
        diff_vs_table_total=total - PUBLISHED_PARAM_TOTAL_TABLE,
        diff_vs_table_total_pct=100.0 * (total - PUBLISHED_PARAM_TOTAL_TABLE) / PUBLISHED_PARAM_TOTAL_TABLE,
        conv_mac_total=flops.conv_total,
        diff_vs_published_flops_pct=100.0 * (flops.conv_total - PUBLISHED_FLOPS_TOTAL) / PUBLISHED_FLOPS_TOTAL,
    )


def format_profile(config: ModelConfig = ModelConfig()) -> str:
    """Aligned text table of layers plus FLOP summary and audit."""
    params = count_params(config)
    flops = count_flops(config)
    lines = [
        f"{'layer':<16}{'in':>5}{'out':>6}{'stride':>8}{'features':>10}{'params':>12}{'MACs':>14}",
    ]
    for r in params.reports:
        lines.append(
            f"{r.name:<16}"
            f"{r.in_channels if r.in_channels is not None else '-':>5}"
            f"{r.out_channels if r.out_channels is not None else '-':>6}"
            f"{r.stride if r.stride is not None else '-':>8}"
            f"{r.features if r.features is not None else '-':>10}"
            f"{r.params:>12,}"
            f"{r.macs:>14,}"
        )
    lines += [
        "",
        f"conv-block params    {params.conv_block_total:>12,}",
        f"primary-caps params  {params.primary_total:>12,}",
        f"class-caps params    {params.class_caps_total:>12,}",
        f"total params         {params.total:>12,}",
        "",
        f"convolution MACs     {flops.conv_total:>12,}   (headline, convention: 1 MAC = 1 FLOP)",
        f"  as 2 FLOPs per MAC {flops.doubled_total:>12,}",
        f"vote MACs            {flops.votes_macs:>12,}   (auxiliary)",
        f"routing MACs/iter    {flops.routing_macs_per_iteration:>12,}   (auxiliary)",
        f"elementwise aux ops  {flops.elementwise_aux:>12,}   (batch norm + relu)",
        "",
        audit_reported_totals(config).format_text(),
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
