"""The benchmark command runs against the working tree and its gates pass.

perfbench's training workload replays ``train.train`` call by call and
checks the replay bit for bit, so a ``src/`` change that breaks one of its
imports, or that the replay no longer matches, fails here. The replay
augments one image at a time through ``augment.two_views``, while
``train.train`` augments the whole batch at once; the gate compares them
on batches of 3, a traced run on every measured step at batch 64.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_train_benchmark(trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-b64",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]


def test_train_benchmark_runs_one_second_and_its_gates_pass():
    _run_train_benchmark(trace=0)


def test_traced_train_benchmark_replays_every_batch_64_step():
    # each traced step's loss and forward must equal train.train's
    _run_train_benchmark(trace=1)
