"""couplekit benchmark: one process, one thread, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload orlicz-shift --seed 1 --seconds 20 --trace 0

The client issues the next task only when the previous one has returned.
Tasks come in rounds of fixed composition, generated from ``--seed`` and
the round index; the timed phase runs ``round(--seconds / round_s)`` rounds
(at least the workload's ``min_rounds``), where ``round_s`` is the
workload's nominal round length, a constant.  Times are reported at
reference host speed (see the calibration below).  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` the run executes
round 0 untraced and then traced (fixed work, so its counts repeat exactly)
and carries the per-layer metrics.  See perfbench/README.md for the
workloads and the metric map.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin threads before numpy is imported; a single client on a single thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("COUPLEKIT_THREADS", None)

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Address-space cap for this process: an oversized allocation (the
# elastic-nl meshgrid in orlicz.indices) becomes a fast MemoryError here
# instead of an out-of-memory kill of the host.
ADDRESS_SPACE_CAP = 3 << 30
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Host-speed calibration.  Shared hosts switch between speeds some 40% apart
# every few seconds, and that moved whole runs by more than the bounds.  A
# fixed pure-Python reference loop is timed just before and just after every
# task and set-up, and every SAMPLE_EVERY_S within it (a SIGALRM handler, so
# long tasks are sampled throughout).  A task's slowdown is
# (mean of those loop times / CAL_REF_S) ** HOST_EXPONENT, and its time is
# reported at reference host speed: (raw time - time in the loop) / slowdown.
# The loop reacts more strongly to the host's speed than couplekit does: over
# 17 runs of orlicz-shift and kfunc-transfer, whose loop times spanned a
# factor of two, run time grew as the loop time to the power 0.73-0.78.
# Raw times stay in `# summary`.
CAL_REPEATS = 9
CAL_REF_S = 0.46e-3    # the loop's median time on a shared 2-vCPU Xeon (Python 3.11)
HOST_EXPONENT = 0.75
SAMPLE_EVERY_S = 0.5


def _cap_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _import_couplekit():
    """Fresh import of couplekit from this checkout's src/ (never elsewhere)."""
    for name in [m for m in sys.modules if m == "couplekit" or m.startswith("couplekit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    ck = importlib.import_module("couplekit")
    importlib.import_module("couplekit.cli")
    if not os.path.abspath(ck.__file__).startswith(SRC + os.sep):
        raise ImportError(f"couplekit resolved outside {SRC}: {ck.__file__}")
    return ck


def _environment():
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def _calibrate():
    """Median time of CAL_REPEATS runs of the reference loop."""
    times = []
    for _ in range(CAL_REPEATS):
        t0 = perf_counter()
        acc = {}
        for i in range(2000):
            acc[i & 63] = acc.get(i & 63, 0.0) + math.sqrt(i + 1.0)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _timed(fn, before):
    """Call ``fn`` with the reference loop sampled before, within and after it.

    ``before`` is the loop time just before the call.  Returns (result,
    exception or None, seconds ``fn`` ran without the loop, slowdown, loop
    time just after).
    """
    samples, spent = [before], 0.0

    def on_alarm(*_):
        nonlocal spent
        t = perf_counter()
        samples.append(_calibrate())
        spent += perf_counter() - t

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    out = error = None
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as exc:  # a failed task is counted, never fatal
        error = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = perf_counter() - t0 - spent
    after = _calibrate()
    samples.append(after)
    slowdown = (statistics.fmean(samples) / CAL_REF_S) ** HOST_EXPONENT
    return out, error, dt, slowdown, after


def _run_round(tasks, results, tracer=None):
    """Closed loop over one round.

    Appends (kind, raw seconds, host slowdown, status, error) per task.
    """
    before = _calibrate()
    for task in tasks:
        span = tracer.begin_task(len(results), task.kind) if tracer else None
        out, exc, dt, slowdown, before = _timed(task.run, before)
        if tracer:
            tracer.end_task(span)
            tracer.active = False
        if exc is None:
            error = None
            try:
                status = "ok" if task.check(out) else "wrong"
            except Exception as err:
                status, error = "wrong", f"check {type(err).__name__}: {str(err)[:120]}"
        else:
            status, error = "failed", f"{type(exc).__name__}: {str(exc)[:120]}"
        if tracer:
            tracer.active = True
        results.append((task.kind, dt, slowdown, status, error))


def _tally(results):
    attempted = len(results)
    failed = sum(1 for r in results if r[3] == "failed")
    wrong = sum(1 for r in results if r[3] == "wrong")
    problems = {}
    for kind, _, _, status, error in results:
        if status != "ok":
            problems.setdefault(f"{status} {kind}: {error}", 0)
            problems[f"{status} {kind}: {error}"] += 1
    return attempted, failed, wrong, problems


def _busy(results):
    """Summed task time at reference host speed."""
    return sum(dt / slow for _, dt, slow, _, _ in results)


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "couplekit", "__init__.py")):
        print(f"perfbench: no couplekit sources under {SRC}", file=sys.stderr)
        return 2
    _cap_address_space()
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS, Notes

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _environment()

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        # set-up: import, input generation and warm-up, repeated; median reported
        def set_up():
            ck = _import_couplekit()
            notes = Notes()
            wl = WORKLOADS[args.workload](ck, args.seed, notes, tmp)
            first = wl.round(0)
            wl.warmup()
            return ck, notes, wl, first

        setup_raw, setup_times = [], []
        before = _calibrate()
        for _ in range(SETUP_REPEATS):
            made, exc, dt, slowdown, before = _timed(set_up, before)
            if exc is not None:
                raise exc
            setup_raw.append(dt)
            setup_times.append(dt / slowdown)
        ck, notes, wl, first = made

        results = []
        if args.trace:
            from tracer import Tracer
            untraced = []
            _run_round(first, untraced)
            tracer = Tracer()
            tracer.install(ck)
            notes.values.clear()
            tracer.active = True
            _run_round(first, results, tracer)
            tracer.active = False
            metrics = tracer.metrics()
            metrics["kfunc.oracle_err_max"] = notes.values.get("kfunc.oracle_err_max", 0.0)
            metrics["transfer.bound_ratio_max"] = notes.values.get("transfer.bound_ratio_max", 0.0)
            metrics["cli.bytes_out"] = notes.values.get("cli.bytes_out", 0.0)
            metrics["trace.overhead_ratio"] = _busy(results) / _busy(untraced)
            spans_path = os.path.join(ROOT, ".bench_trace",
                                      f"{args.workload}-seed{args.seed}.npz")
            tracer.dump(spans_path)
            summary = {"spans": len(tracer.span_name), "spans_file": spans_path,
                       "untraced_s": _busy(untraced), "traced_s": _busy(results)}
        else:
            # The round count follows from --seconds and the workload's nominal
            # round length alone, never from measured speed, so every commit
            # runs the same tasks and reports the same order statistics.
            rounds = max(wl.min_rounds, round(args.seconds / wl.round_s))
            for r in range(rounds):
                _run_round(first if r == 0 else wl.round(r), results)
            # a failed task misses every latency limit: it sorts as infinitely slow
            times = [dt / slow if status != "failed" else float("inf")
                     for _, dt, slow, status, _ in results]
            tail, pct = _tail(times)
            completed = sum(1 for r in results if r[3] != "failed")
            metrics = {
                "setup_s": statistics.median(setup_times),
                "task_p50_s": statistics.median(times),
                "task_tail_s": tail,
                "tasks_per_s": completed / _busy(results),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            summary = {"rounds": rounds, "samples": len(times),
                       "tail_percentile": round(pct, 2), "tail_beyond": TAIL_BEYOND,
                       "busy_s": _busy(results),
                       "raw_busy_s": sum(r[1] for r in results),
                       "host_slowdown_median": statistics.median(r[2] for r in results),
                       "setup_raw_s": setup_raw}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, wrong, problems = _tally(results)
    by_kind = {}
    for kind, dt, _, _, _ in results:
        by_kind.setdefault(kind, []).append(dt)
    summary.update({"workload": args.workload, "seed": args.seed, "tasks": attempted,
                    "fail_ratio": failed / attempted, "wrong_ratio": wrong / attempted,
                    "problems": problems,
                    "raw_median_s_by_kind": {k: statistics.median(v)
                                             for k, v in sorted(by_kind.items())}})
    print("# env " + json.dumps(env, sort_keys=True))
    print("# summary " + json.dumps(summary, sort_keys=True))
    units = _units()
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
