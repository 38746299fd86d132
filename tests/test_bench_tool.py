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


def _pairs(base_factors, new_factors):
    base = bench.parse_output(_CANNED)
    return [(_scaled(base, b), _scaled(base, n)) for b, n in zip(base_factors, new_factors)]


def test_claim_rule_holds():
    # 10 of 10 won, parent runs within 2% of each other, the checkout 10% faster
    spread = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    s = bench.paired(_pairs(spread, [0.9 * f for f in spread]))["task_p50_s"]
    assert (s["won"], s["pairs"]) == (10, 10)
    assert s["base_median"] == pytest.approx(0.0119)
    assert s["checkout_median"] == pytest.approx(0.9 * 0.0119)
    # inclusive quartiles 0.9925 and 1.0075 of the factors
    assert s["base_iqr"] == pytest.approx(0.015 * 0.0119)
    assert s["claim"]
    # throughput is better higher: the same runs claim it too
    assert bench.paired(_pairs(spread, [0.9 * f for f in spread]))["tasks_per_s"]["claim"]


def test_claim_rule_misses():
    spread = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    # 8 of 10 won, though the median gap is far past the parent's IQR
    new = [0.9 * f for f in spread[:8]] + [1.1 * f for f in spread[8:]]
    s = bench.paired(_pairs(spread, new))["task_p50_s"]
    assert s["won"] == 8 and s["checkout_median"] < s["base_median"] - s["base_iqr"]
    assert not s["claim"]
    # 10 of 10 won, but by less than the parent's spread of about 20%
    wide = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    s = bench.paired(_pairs(wide, [0.97 * f for f in wide]))["task_p50_s"]
    assert s["won"] == 10 and s["base_median"] - s["checkout_median"] < s["base_iqr"]
    assert not s["claim"]
