"""The benchmark command runs against the working tree and its gates pass.

perfbench's training workload replays ``train.train`` call by call and
checks the replay bit for bit, so a ``src/`` change that breaks one of its
imports, or that the replay no longer matches, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_train_benchmark_runs_one_second_and_its_gates_pass():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-b64",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
