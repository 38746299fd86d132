"""The benchmark's own test: traced work counts repeat exactly for one seed.

Run from the repository root (about three minutes; ``-k`` picks workloads):

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
# everything but times and rates is a count of work done or a checked value
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] not in ("s", "1/s") and m["name"] != "trace.overhead_ratio"]


def _traced(workload, seed):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed",
                           str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_for_one_seed(workload):
    a, b = _traced(workload, 7), _traced(workload, 7)
    assert a["correct"] and b["correct"]
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts_a = {k: a["metrics"][k]["value"] for k in COUNTS}
    counts_b = {k: b["metrics"][k]["value"] for k in COUNTS}
    assert counts_a == counts_b
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
