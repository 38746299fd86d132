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
census prints one line per function and the totals of both.  The suite runs
about twice as slowly under the hook, so the census takes minutes and stays
out of Tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "couplekit"
WORKLOADS = ("orlicz-shift", "kfunc-transfer", "readme-cli")
RUNS = ("tier1", "claims", *WORKLOADS)
CLAIM_TESTS = ("tests/test_acceptance.py", "tests/test_cli.py", "tests/test_readme.py")
SEED, ROUNDS = 7, 1


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


def worker(run: str, out: Path) -> None:
    """Run one census run in this process and write the keys it reached."""
    sys.path.insert(0, str(SRC))
    with recording() as seen:
        if run == "tier1":
            _pytest([ROOT / "tests"])
        elif run == "claims":
            _pytest([ROOT / t for t in CLAIM_TESTS])
        else:
            _workload(run)
    out.write_text(json.dumps(sorted(reached(seen))))


def census() -> dict[Def, list[str]]:
    """Each def -> the runs that call it, one worker process per run."""
    runs_of = {d: [] for d in enumerate_defs()}
    by_key = {d.key: d for d in runs_of}
    with tempfile.TemporaryDirectory() as tmp:
        for run in RUNS:
            out = Path(tmp) / f"{run}.json"
            subprocess.run([sys.executable, __file__, "--worker", run, "--out", str(out)],
                           cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            for key in json.loads(out.read_text()):
                if tuple(key) in by_key:
                    runs_of[by_key[tuple(key)]].append(run)
    return runs_of


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--worker", choices=RUNS, help=argparse.SUPPRESS)
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args.worker, args.out)
        return 0

    runs_of = census()
    for d, runs in runs_of.items():
        print(f"{d.lines:4d}  {','.join(runs) or 'never':<50}  {d.name}")
    print(f"# {len(runs_of)} functions, {sum(d.lines for d in runs_of)} lines")
    for label, pick in (("never called", lambda r: not r),
                        ("tier1 only", lambda r: r == ["tier1"])):
        picked = [d for d, r in runs_of.items() if pick(r)]
        print(f"# {label}: {len(picked)} functions, {sum(d.lines for d in picked)} lines: "
              + " ".join(d.name for d in picked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
