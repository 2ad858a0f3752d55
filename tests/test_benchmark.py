"""The benchmark runs on this tree: each workload of BENCHMARK.json, traced,
exits 0 with every operation passing its oracle.

perfbench wraps the package's public functions and PathFrame methods and reads
what some of them return, so a change that drops one of those breaks it.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_is_correct(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] > 0 and result["failed"] == 0
