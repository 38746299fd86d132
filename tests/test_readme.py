"""The README's library quick start runs as written and shows the values its
comments state."""

import ast
from pathlib import Path

import numpy as np
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
