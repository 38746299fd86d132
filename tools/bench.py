"""Benchmark records and paired A/B runs, driving ``perfbench/run.py`` unchanged.

Usage (from the repository root):

    python tools/bench.py record --tag T [--workload W ...] [--seed S] [--seconds X]
    python tools/bench.py ab REV --pairs N --workload W --seed S [--seconds X] [--tag T]

Each run is a fresh ``python3 perfbench/run.py --trace 0`` process; its
output is parsed into the last-line metrics JSON, ``# summary`` (with
``raw_median_s_by_kind``) and ``# env``.

``record`` runs this checkout once per workload and writes the runs to
``BENCH_<T>.json``.  ``ab`` exports REV with ``git archive`` and this
checkout's files (tracked and untracked, not ignored: uncommitted edits
count) into two directories of one temporary directory, named so that their
paths have the same length (``peak_rss_mb`` depends on it).  It runs the two
trees N times, alternating which runs first, since the second run of a pair
tends to read slower whichever tree it is.  For each end-to-end metric and
each task kind's raw median it prints the N paired ratios (this checkout /
REV), their median and "k of N won", each side's median, the parent's
interquartile range and whether the claim rule holds (at least 9 of 10
pairs won and a median gap larger than that range).  With ``--tag`` the
runs and the summary are added to ``BENCH_<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_output(text: str) -> dict:
    """The ``# env`` and ``# summary`` objects and the last-line result of a
    ``run.py`` output."""
    lines = text.strip().splitlines()
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        for key in ("env", "summary"):
            if line.startswith(f"# {key} "):
                out[key] = json.loads(line[len(key) + 3:])
    missing = {"env", "summary"} - out.keys()
    if missing:
        raise ValueError(f"run.py output has no {' or '.join(sorted(missing))} line")
    return out


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One fresh benchmark process in ``tree``, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    run = parse_output(proc.stdout)
    run.update(tree=str(tree), workload=workload, seed=seed, seconds=seconds)
    return run


def _better() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def paired(pairs: list[tuple[dict, dict]]) -> dict:
    """For each end-to-end metric and each kind's raw median: the paired
    ratios new / base, their median and how many pairs the new side won."""
    better = _better()
    series = {}
    for base, new in pairs:
        values = []
        for run in (base, new):
            m = {k: v["value"] for k, v in run["result"]["metrics"].items()}
            m.update({f"kind:{k}": v
                      for k, v in run["summary"]["raw_median_s_by_kind"].items()})
            values.append(m)
        for name in values[0].keys() & values[1].keys():
            series.setdefault(name, []).append((values[0][name], values[1][name]))
    out = {}
    for name in sorted(series):
        higher = better.get(name, "lower") == "higher"
        ratios = [n / b if b else float("nan") for b, n in series[name]]
        won = sum((n > b) if higher else (n < b) for b, n in series[name])
        out[name] = {"ratios": ratios, "median": statistics.median(ratios),
                     "won": won, "pairs": len(ratios),
                     **claim_rule(series[name], won, higher)}
    return out


def claim_rule(pairs: list[tuple[float, float]], won: int, higher: bool) -> dict:
    """Each side's median over the (parent, checkout) value pairs, the
    parent's interquartile range and whether a gain may be claimed: the
    checkout won at least 9 of 10 pairs and its median beats the parent's
    by more than that range."""
    base = [b for b, _ in pairs]
    q1, _, q3 = (statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1
                 else (base[0],) * 3)
    b, n = statistics.median(base), statistics.median([n for _, n in pairs])
    gap = n - b if higher else b - n
    return {"base_median": b, "checkout_median": n, "base_iqr": q3 - q1,
            "claim": 10 * won >= 9 * len(base) and gap > q3 - q1}


def _write(tag: str, key: str, value) -> Path:
    path = ROOT / f"BENCH_{tag}.json"
    record = json.loads(path.read_text()) if path.exists() else {"tag": tag}
    record.setdefault(key, []).extend(value)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def _git(*args, **kw) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, **kw).stdout


def _export(rev: str, tmp: Path) -> tuple[Path, Path]:
    """REV and this checkout's files as ``tmp/base`` and ``tmp/head``: paths
    of the same length."""
    base, head = tmp / "base", tmp / "head"
    for d in (base, head):
        d.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
    for name in _git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        if name and (ROOT / name).is_file():
            (head / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, head / name)
    return base, head


def cmd_record(args) -> int:
    runs = [run_once(ROOT, w, args.seed, args.seconds) for w in args.workload]
    rev = _git("rev-parse", "HEAD").strip()
    for run in runs:
        run["tree"] = rev
        r = run["result"]
        print(f"{run['workload']}: correct={r['correct']} failed={r['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()))
    print(_write(args.tag, "runs", runs))
    return 0


def cmd_ab(args) -> int:
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        base, head = _export(args.rev, Path(tmp))
        for i in range(args.pairs):
            order = [(0, base), (1, head)] if i % 2 == 0 else [(1, head), (0, base)]
            pair = [None, None]
            for side, tree in order:
                pair[side] = run_once(tree, args.workload, args.seed, args.seconds)
                pair[side]["tree"] = args.rev if side == 0 else "checkout"
            pairs.append(tuple(pair))
    for i, (b, n) in enumerate(pairs):
        print(f"pair {i}: base correct={b['result']['correct']} failed={b['result']['failed']}"
              f", checkout correct={n['result']['correct']} failed={n['result']['failed']}")
    summary = paired(pairs)
    for name, s in summary.items():
        ratios = " ".join(f"{r:.3f}" for r in s["ratios"])
        print(f"{name}: median {s['median']:.3f}, {s['won']} of {s['pairs']} won [{ratios}]; "
              f"medians {s['base_median']:.4g} -> {s['checkout_median']:.4g}, parent IQR "
              f"{s['base_iqr']:.4g}: claim {'holds' if s['claim'] else 'misses'}")
    if args.tag:
        entry = {"rev": args.rev, "workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "summary": summary,
                 "pairs": [{"base": b, "checkout": n} for b, n in pairs]}
        print(_write(args.tag, "ab", [entry]))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run this checkout and write BENCH_<tag>.json")
    rec.add_argument("--tag", required=True)
    rec.add_argument("--workload", nargs="+",
                     default=["orlicz-shift", "kfunc-transfer", "readme-cli"])
    ab = sub.add_parser("ab", help="paired runs of REV against this checkout")
    ab.add_argument("rev")
    ab.add_argument("--pairs", type=int, required=True)
    ab.add_argument("--workload", required=True)
    ab.add_argument("--tag")
    for p in (rec, ab):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    return cmd_record(args) if args.cmd == "record" else cmd_ab(args)


if __name__ == "__main__":
    sys.exit(main())
