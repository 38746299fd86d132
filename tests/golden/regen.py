"""Rewrite the golden manifest and print each moved case.

Usage (from the repository root):

    PYTHONPATH=src python tests/golden/regen.py

Recomputes every case of ``cases.py`` from the seeds and t-grid recorded in
``manifest.json``, writes the values and this host's Python and numpy
versions back, and prints one line per case that moved: its name, how many
of its values moved and the largest relative move among them.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import cases  # noqa: E402


def main() -> int:
    manifest = cases.load()
    new = cases.compute(manifest["seeds"], manifest["t_grid"])
    moves = cases.moved(cases.stored(manifest), new)
    for name, k, n, rel in moves:
        print(f"{name}: {k} of {n} moved, largest relative move {rel:.3g}")
    print(f"{len(moves)} of {len(new)} cases moved")
    cases.dump(manifest, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
