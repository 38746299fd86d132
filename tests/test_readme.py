"""The README's library quick start runs as written and shows the values its
comments state."""

import ast
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


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
    k, oracle, c_hat, _, inelastic, elastic = shown
    assert k == pytest.approx(0.5, rel=1e-12) and oracle == pytest.approx(0.5, rel=1e-12)
    assert c_hat >= 1.5
    assert (inelastic, elastic) == ("inelastic-witness", "elastic-consistent")
