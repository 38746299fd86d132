"""``tools/bench.py`` parses ``perfbench/run.py`` output and pairs runs, with
no subprocess: the output below is canned from a readme-cli run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

_CANNED = """\
# env {"cpu": "Intel(R) Xeon(R) Processor", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7"}
# summary {"busy_s": 1.17, "fail_ratio": 0.0, "host_slowdown_median": 1.16, "problems": {}, \
"raw_median_s_by_kind": {"k-profile:orlicz-linf": 0.0086, "shift-test:readme": 0.331}, \
"rounds": 2, "samples": 32, "seed": 7, "tasks": 32, "workload": "readme-cli", "wrong_ratio": 0.0}
{"correct": true, "attempted": 32, "failed": 0, "metrics": {"setup_s": {"value": 0.118, \
"unit": "s"}, "task_p50_s": {"value": 0.0119, "unit": "s"}, "tasks_per_s": {"value": 27.3, \
"unit": "1/s"}}}
"""


def _scaled(run, time_factor):
    """A copy of a parsed run with every time scaled and throughput divided."""
    out = json.loads(json.dumps(run))
    for name, m in out["result"]["metrics"].items():
        m["value"] = m["value"] / time_factor if name == "tasks_per_s" else m["value"] * time_factor
    kinds = out["summary"]["raw_median_s_by_kind"]
    out["summary"]["raw_median_s_by_kind"] = {k: v * time_factor for k, v in kinds.items()}
    return out


def test_parse_canned_run_output():
    run = bench.parse_output(_CANNED)
    assert run["env"]["nproc"] == 2
    assert run["summary"]["raw_median_s_by_kind"]["k-profile:orlicz-linf"] == 0.0086
    assert run["result"]["correct"] is True and run["result"]["failed"] == 0
    assert run["result"]["metrics"]["task_p50_s"]["value"] == 0.0119
    with pytest.raises(ValueError, match="summary"):
        bench.parse_output("\n".join(line for line in _CANNED.splitlines()
                                     if not line.startswith("# summary")))


def test_paired_ratios_and_wins():
    base = bench.parse_output(_CANNED)
    # the checkout 20% faster in two pairs, 10% slower in the third
    pairs = [(base, _scaled(base, 0.8)), (base, _scaled(base, 0.8)), (base, _scaled(base, 1.1))]
    s = bench.paired(pairs)
    assert s["task_p50_s"]["ratios"] == pytest.approx([0.8, 0.8, 1.1])
    assert s["task_p50_s"]["median"] == pytest.approx(0.8)
    assert (s["task_p50_s"]["won"], s["task_p50_s"]["pairs"]) == (2, 3)
    # higher is better for throughput: the same two pairs win
    assert s["tasks_per_s"]["won"] == 2
    assert s["kind:k-profile:orlicz-linf"]["won"] == 2
