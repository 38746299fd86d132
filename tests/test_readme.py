"""The README's library quick start runs as written and shows the values its
comments state; its honesty conventions name tests that exist, and its module
map names every module."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_library_quick_start():
    text = README.read_text()
    block = text.split("## Quick start (library)", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope, shown = {}, []
    # each bare expression is a value the reader is shown
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            shown.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), scope))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), scope)
    (k, oracle, k_swapped, c_hat, images, _, norm, spec, seq_norm, inelastic,
     elastic) = shown
    assert k == pytest.approx(0.5, rel=1e-12) and oracle == pytest.approx(0.5, rel=1e-12)
    assert k_swapped == pytest.approx(0.5, rel=1e-12)
    assert c_hat >= 1.5
    # the rank-one sum maps each x_n of the witness to its y_n
    Y = scope["fam"].Y
    assert len(images) == len(Y)
    for Rx, y in zip(images, Y):
        assert np.max(np.abs(Rx - y)) <= 1e-12 * np.max(np.abs(y))
    # ||chi_[0,1/4)||^2 = W(1/4) = (1/4)^0.6 / 0.6, in X and in E_X
    closed = (0.25 ** 0.6 / 0.6) ** 0.5
    assert norm == pytest.approx(closed, rel=1e-12) and seq_norm == pytest.approx(closed, rel=1e-12)
    assert spec == "lorentz:p=2,w=pow:0.3"
    assert (inelastic, elastic) == ("inelastic-witness", "elastic-consistent")


def _section(title):
    """The README's text under ``## title``, up to the next ``## `` heading."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _defines(path, name):
    """Whether the test file at ``path`` defines ``name``: ``test`` at module
    level, or ``Class::test``."""
    *owner, test = name.split("::")
    body = ast.parse(path.read_text()).body
    if owner:
        body = [node.body for node in body
                if isinstance(node, ast.ClassDef) and node.name == owner[0]]
        body = body[0] if len(body) == 1 and len(owner) == 1 else []
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == test
               for node in body)


def test_honesty_conventions_name_existing_tests():
    entries = re.split(r"(?m)^- \*\*H(\d+)\.\*\*", _section("Honesty conventions"))[1:]
    numbers = [int(n) for n in entries[0::2]]
    assert numbers == list(range(1, len(numbers) + 1))
    for number, body in zip(numbers, entries[1::2]):
        text = " ".join(body.split())
        named = re.findall(r"`tests/(\w+\.py)::([\w:]+)`", text)
        if not named:
            assert re.match(r"Unchecked: \S", text), f"H{number} names no test"
            continue
        assert not text.startswith("Unchecked:"), f"H{number} is unchecked but names tests"
        for file, name in named:
            path = ROOT / "tests" / file
            assert file.startswith("test_") and path.is_file(), f"H{number}: no {file}"
            assert _defines(path, name), f"H{number}: {file} defines no {name}"


def test_module_map_names_every_module():
    rows = re.findall(r"(?m)^\| `couplekit\.(\w+)` \|", _section("Module map"))
    modules = {p.stem for p in (ROOT / "src" / "couplekit").glob("*.py")} - {"__init__"}
    assert sorted(rows) == sorted(modules)
