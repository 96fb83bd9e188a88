"""Benchmark for ccaps, driven from outside through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-b64 --seed 1 --seconds 48 --trace 0

Workloads are ``train-b64`` and ``knn-50k`` (see ``perfbench/README.md``).
With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` every other op is traced, and the run reports the
per-layer metrics taken from the spans of the traced ops; the untraced ops
in between give ``trace.overhead_ratio``. Spans are written
to ``.perfbench-out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the details: the environment, output digests, the op count and the
tail percentile. Without ``src/ccaps`` beside this directory the run exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CONV_ROWS = 6  # Conv2d and BatchNorm2d rows of the default ModelConfig
LAYER_SPANS = (
    [f"model.Conv2d-{i}.fwd" for i in range(1, _CONV_ROWS + 1)]
    + [f"model.BatchNorm2d-{i}.fwd" for i in range(1, _CONV_ROWS + 1)]
    + [
        "model.conv_block.fwd",
        "model.PrimaryCaps.fwd",
        "model.ClassCaps.votes.fwd",
        "model.Routing.fwd",
        "autodiff.backward",
        "augment.two_views",
        "data.standardize",
        "loss.nt_xent.fwd",
        "train.Adam.step",
        "knn.weighted_knn_predict",
    ]
)
COMPUTED_UNITS = {
    "model.conv_block.gflops": "GFLOP/s",
    "knn.gflops": "GFLOP/s",
    "knn.sim_gflop": "GFLOP",
    "knn.bank_bytes_read": "B",
}


def layer_metric_name(span: str) -> str:
    return span + ("_s" if span.endswith(".fwd") else ".s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must precede the numpy import."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))
    return nproc


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library this process has loaded."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _cpu_record() -> dict:
    model = None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    llc_level, llc_size = 0, None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level > llc_level:
            llc_level, llc_size = level, size
    return {"cpu_model": model, "llc": f"L{llc_level} {llc_size}" if llc_size else None}


def environment(np, nproc: int, seed: int) -> dict:
    from ccaps.profiler import layer_reports

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc,
        **_cpu_record(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
        },
        "seed": seed,
        "macs_per_row": {r.name: r.macs for r in layer_reports()},
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least 10 samples beyond it.

    Runs of 21 ops or fewer have no such percentile above the median; the
    tail is then the slowest op. Returns (value, percentile, samples beyond).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 10 if n > 21 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "ccaps" / "__init__.py").is_file():
        print(f"error: no ccaps package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import ccaps
    from tracing import Tracer
    from workloads import WORKLOADS

    if Path(ccaps.__file__).resolve().parent != src / "ccaps":
        print(f"error: imported ccaps from {ccaps.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    problems = workload.gate()

    tracer = Tracer() if args.trace else None
    attempted, times, failed, op_problems = workload.measure(args.seconds, tracer)
    extra_failed, end_problems, detail = workload.finish()
    failed |= extra_failed
    if problems:  # a failed gate means no timed op measured what it stands for
        failed = set(range(attempted))
    problems += op_problems + end_problems
    for p in problems:
        print(p, file=sys.stderr)

    untraced = times[False]
    if args.trace:
        per_op = tracer.per_op_totals()
        traced_ops = [per_op[i] for i in sorted(per_op) if i not in failed]

        def median(name: str) -> float:
            return statistics.median(op.get(name, 0.0) for op in traced_ops) if traced_ops else 0.0

        metrics = {layer_metric_name(s): (median(s), "s") for s in LAYER_SPANS}
        computed = dict.fromkeys(COMPUTED_UNITS, 0.0)
        computed.update(workload.computed_metrics(median))
        metrics.update({k: (v, COMPUTED_UNITS[k]) for k, v in computed.items()})
        metrics["trace.residual_s"] = (median("residual"), "s")
        # untraced ops call the program itself, traced ops the benchmark's
        # call-by-call copy with spans: the ratio shows span cost and any cost
        # the copy adds or misses
        overhead = (
            statistics.median(times[True]) / statistics.median(untraced)
            if times[True] and untraced else 0.0
        )
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        value, percentile, beyond = tail(untraced) if untraced else (0.0, 0.0, 0)
        detail["op_s_tail_percentile"] = percentile
        detail["op_s_tail_samples_beyond"] = beyond
        total = sum(untraced)
        metrics = {
            "items_per_s": workload.items_per_op * len(untraced) / total if total else 0.0,
            "op_s_p50": statistics.median(untraced) if untraced else 0.0,
            "op_s_tail": value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    detail.update(
        workload=args.workload,
        ops=attempted,
        failed_frac=len(failed) / attempted,
        gate_problems=len(problems) - len(op_problems) - len(end_problems),
        setup_runs_s=setup_times,
        environment=environment(np, nproc, args.seed),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
