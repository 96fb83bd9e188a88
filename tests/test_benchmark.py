"""The benchmark command runs against the working tree and its gates pass.

perfbench's training workload replays ``train.train`` call by call and
checks the replay bit for bit, so a ``src/`` change that breaks one of its
imports, or that the replay no longer matches, fails here. The replay
augments one image at a time through ``augment.two_views``, while
``train.train`` augments the whole batch at once; the gate compares them
on batches of 3, a traced run on every measured step at batch 64. The kNN
workload checks a sample of its rankings against a brute-force oracle.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_benchmark(workload: str, trace: int) -> dict:
    """One one-second run; returns its detail line after checking its result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, detail, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    return json.loads(detail)["detail"]


def test_train_benchmark_runs_one_second_and_its_gates_pass():
    _run_benchmark("train-b64", trace=0)


def test_traced_train_benchmark_replays_every_batch_64_step():
    # each traced step's loss and forward must equal train.train's
    _run_benchmark("train-b64", trace=1)


def test_knn_benchmark_rankings_agree_with_its_oracle():
    detail = _run_benchmark("knn-50k", trace=0)
    assert detail["oracle_mismatched"] == 0 and detail["oracle_checked"] > 0, detail
