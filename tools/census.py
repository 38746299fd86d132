"""Which runs reach each function of ``src/couplekit``: a call census with the stdlib.

Usage (from the repository root):

    python tools/census.py

It lists every module-level and class-level ``def`` in ``src/couplekit``
(a nested helper counts as part of the function that holds it), with its
line count from its first decorator to its last line, and the runs that call
it.  Each run is a fresh ``python tools/census.py --worker RUN`` process
under ``sys.setprofile``:

* ``tier1``: the whole ``tests/`` suite;
* ``claims``: the acceptance suite, the CLI tests and the README quick-start
  test;
* one run per workload of ``perfbench/workloads.py``: its warm-up and its
  first ``ROUNDS`` rounds at seed ``SEED``, every task's check required to
  pass.

A function no run calls is "never" called; one that only ``tier1`` calls is
"tier1 only": unit tests reach it, and no claim or workload does.  The
census prints one line per function and the totals of both, then for each
workload run the package modules it loaded, each with its lines, its tokens
and the def-lines the run called of those the module holds: the code a
workload compiles against the code it runs.  The suite runs
about twice as slowly under the hook, so the census takes minutes and stays
out of Tier-1.

Last it splits each workload's set-up, timed as ``perfbench/run.py`` times
it (a fresh import of the package and ``couplekit.cli``, the workload, its
round 0 and its warm-up), into compiling source (per module), building
classes and the rest: the median of ``SETUP_REPEATS`` fresh set-ups in one
``python tools/census.py --worker setup:W`` process, in raw milliseconds
(not at perfbench's reference host speed).  ``--setup`` prints these
tables alone, in seconds rather than minutes.
"""

from __future__ import annotations

import argparse
import ast
import builtins
import io
import json
import statistics
import subprocess
import sys
import tempfile
import threading
import tokenize
from contextlib import contextmanager
from importlib.machinery import SourceFileLoader
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "couplekit"
WORKLOADS = ("orlicz-shift", "kfunc-transfer", "readme-cli")
RUNS = ("tier1", "claims", *WORKLOADS)
CLAIM_TESTS = ("tests/test_acceptance.py", "tests/test_cli.py", "tests/test_readme.py")
SEED, ROUNDS = 7, 1
SETUP_REPEATS = 9


class Def(NamedTuple):
    """One module-level or class-level ``def``; ``first`` is the line of its
    first decorator, as its code object's ``co_firstlineno`` is."""

    name: str  # module.qualname
    path: str
    first: int
    last: int

    @property
    def key(self) -> tuple[str, int]:
        return self.path, self.first

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def enumerate_defs() -> list[Def]:
    """Every ``def`` at module level or in a class body (classes nested in
    classes included) of the package's modules, in file and line order."""
    out = []

    def walk(body, path, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                out.append(Def(prefix + node.name, path, first, node.end_lineno))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, path, f"{prefix}{node.name}.")

    for file in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(file.read_text()).body, str(file.resolve()), f"{file.stem}.")
    return out


@contextmanager
def recording():
    """Collect the code object of every Python call made in the block, on
    every thread; the profiler in place before is put back after."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    before = sys.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield seen
    finally:
        sys.setprofile(before)
        threading.setprofile(before)


def reached(codes) -> set[tuple[str, int]]:
    """The (path, first line) keys of the package's code objects among ``codes``."""
    prefix = str(PACKAGE.resolve())
    return {(c.co_filename, c.co_firstlineno) for c in codes
            if c.co_filename.startswith(prefix)}


def _pytest(paths) -> None:
    import pytest

    rc = pytest.main(["-q", "-p", "no:cacheprovider", *map(str, paths)])
    if rc != 0:
        raise SystemExit(f"census: pytest exited {rc}")


def _workload(name: str) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import couplekit as ck
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.WORKLOADS[name](ck, SEED, workloads.Notes(), tmp)
        tasks = [wl.round(r) for r in range(ROUNDS)]
        wl.warmup()
        for task in (t for round_ in tasks for t in round_):
            if not task.check(task.run()):
                raise SystemExit(f"census: a {task.kind} check failed in {name}")


def loaded_modules() -> list[str]:
    """The package's modules loaded in this process, by file stem
    (``__init__`` for the package itself)."""
    return sorted(name.partition(".")[2] or "__init__" for name in sys.modules
                  if name == PACKAGE.name or name.startswith(PACKAGE.name + "."))


def module_size(stem: str) -> tuple[int, int]:
    """(lines, tokens) of a package module's source, as the tokenizer reads it."""
    text = (PACKAGE / f"{stem}.py").read_text()
    return text.count("\n"), sum(1 for _ in tokenize.generate_tokens(io.StringIO(text).readline))


@contextmanager
def setup_timers():
    """Time, in the block, each compile of a module's source
    (``SourceFileLoader.source_to_code``: ``compile <stem>`` for a package
    module, ``compile (other)`` else) and the building of classes
    (``builtins.__build_class__``, and ``dataclasses._process_class`` where
    a dataclass is made); the block gets the seconds and the calls per part.
    Only outermost calls count, so a class statement inside a class body or
    the code a dataclass compiles is its outer call's time."""
    import dataclasses

    spent, calls, depth = {}, {}, [0]

    def timing(owner, attr, part):
        fn = getattr(owner, attr)

        def timed(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                key = part(args)
                spent[key] = spent.get(key, 0.0) + perf_counter() - t0
                calls[key] = calls.get(key, 0) + 1

        own = vars(owner).get(attr)  # None where a class inherits it
        setattr(owner, attr, timed)
        return owner, attr, own

    def compiled(args):
        path = Path(args[2])
        return f"compile {path.stem if path.parent == PACKAGE else '(other)'}"

    saved = [timing(SourceFileLoader, "source_to_code", compiled),
             timing(builtins, "__build_class__", lambda args: "classes"),
             timing(dataclasses, "_process_class", lambda args: "dataclasses")]
    try:
        yield spent, calls
    finally:
        for owner, attr, own in saved:
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def setup_split(name: str) -> dict:
    """``SETUP_REPEATS`` fresh set-ups of a workload after an untimed one,
    with no bytecode read or written, as in a fresh checkout under
    ``PYTHONDONTWRITEBYTECODE``: the medians of the total, of each part of
    ``setup_timers`` and of the rest, with the parts' calls per set-up."""
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    import run  # perfbench's runner: its thread pins and its fresh import
    import workloads

    def set_up(tmp):
        ck = run._import_couplekit()
        wl = workloads.WORKLOADS[name](ck, SEED, workloads.Notes(), tmp)
        wl.round(0)
        wl.warmup()

    samples, calls = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        sys.pycache_prefix = tmp  # an empty bytecode cache: every import compiles
        set_up(tmp)
        for _ in range(SETUP_REPEATS):
            with setup_timers() as (spent, calls):
                t0 = perf_counter()
                set_up(tmp)
                total = perf_counter() - t0
            samples.append({**spent, "total": total, "rest": total - sum(spent.values())})
    parts = sorted({key for s in samples for key in s})
    return {"seconds": {key: statistics.median(s.get(key, 0.0) for s in samples)
                        for key in parts}, "calls": calls}


def setup_table(name: str, split: dict) -> list[str]:
    """The set-up split of one workload, in ms, package modules by compile
    time."""
    sec, calls = split["seconds"], split["calls"]
    mods = sorted((k for k in sec if k.startswith("compile ")), key=lambda k: -sec[k])
    built = (f"{calls.get('classes', 0)} classes, "
             f"{calls.get('dataclasses', 0)} of them dataclasses")
    rows = [f"# {name} set-up, median of {SETUP_REPEATS}, ms: total {1e3 * sec['total']:.1f}",
            f"#   compiling source  {1e3 * sum(sec[k] for k in mods):6.1f}",
            *(f"#     {k[8:]:<15} {1e3 * sec[k]:6.1f}" for k in mods),
            f"#   building classes  {1e3 * (sec.get('classes', 0) + sec.get('dataclasses', 0)):6.1f}"
            f"  ({built})",
            f"#   the rest          {1e3 * sec['rest']:6.1f}"]
    return rows


def worker(run: str, out: Path) -> None:
    """Run one census run in this process and write the keys it reached and
    the package modules it loaded, or a ``setup:W`` run's ``setup_split``."""
    if run.startswith("setup:"):
        out.write_text(json.dumps(setup_split(run.partition(":")[2])))
        return
    sys.path.insert(0, str(SRC))
    with recording() as seen:
        if run == "tier1":
            _pytest([ROOT / "tests"])
        elif run == "claims":
            _pytest([ROOT / t for t in CLAIM_TESTS])
        else:
            _workload(run)
    out.write_text(json.dumps({"reached": sorted(reached(seen)), "loaded": loaded_modules()}))


def in_worker(run: str) -> dict:
    """What ``worker`` writes for ``run``, from a fresh process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        subprocess.run([sys.executable, __file__, "--worker", run, "--out", str(out)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        return json.loads(out.read_text())


def census() -> tuple[dict[Def, list[str]], dict[str, list[str]]]:
    """Each def -> the runs that call it, and each run -> the modules it
    loaded; one worker process per run."""
    runs_of = {d: [] for d in enumerate_defs()}
    by_key = {d.key: d for d in runs_of}
    loads = {}
    for run in RUNS:
        result = in_worker(run)
        loads[run] = result["loaded"]
        for key in result["reached"]:
            if tuple(key) in by_key:
                runs_of[by_key[tuple(key)]].append(run)
    return runs_of, loads


def load_table(run: str, modules: list[str], runs_of: dict[Def, list[str]]) -> list[str]:
    """One line per module ``run`` loaded: its lines, its tokens, and the
    def-lines ``run`` called of the def-lines it holds; then the totals."""
    rows, total = [f"# {run}: module, lines, tokens, def-lines called / held"], [0, 0, 0, 0]
    for stem in modules:
        defs = [d for d in runs_of if Path(d.path).stem == stem]
        size = (*module_size(stem), sum(d.lines for d in defs if run in runs_of[d]),
                sum(d.lines for d in defs))
        total = [a + b for a, b in zip(total, size)]
        rows.append("#   {:<10} {:6,d} {:7,d} {:6,d} / {:,d}".format(stem, *size))
    rows.append("#   {:<10} {:6,d} {:7,d} {:6,d} / {:,d}".format("total", *total))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--setup", action="store_true",
                    help="print only the set-up split of each workload")
    ap.add_argument("--worker", choices=[*RUNS, *(f"setup:{w}" for w in WORKLOADS)],
                    help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.out)
        return 0

    if not args.setup:
        runs_of, loads = census()
        for d, runs in runs_of.items():
            print(f"{d.lines:4d}  {','.join(runs) or 'never':<50}  {d.name}")
        print(f"# {len(runs_of)} functions, {sum(d.lines for d in runs_of)} lines")
        for label, pick in (("never called", lambda r: not r),
                            ("tier1 only", lambda r: r == ["tier1"])):
            picked = [d for d, r in runs_of.items() if pick(r)]
            print(f"# {label}: {len(picked)} functions, {sum(d.lines for d in picked)} "
                  "lines: " + " ".join(d.name for d in picked))
        for run in WORKLOADS:
            print("\n".join(load_table(run, loads[run], runs_of)))
    for run in WORKLOADS:
        print("\n".join(setup_table(run, in_worker(f"setup:{run}"))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
