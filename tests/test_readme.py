import ast
import math
import os

import numpy as np
import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_quick_start():
    """Run README's python block statement by statement; returns its namespace
    and the value of each expression statement, keyed by its source text."""
    with open(README, encoding="utf-8") as f:
        code = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            expr = compile(ast.Expression(node.value), README, "eval")
            values[ast.get_source_segment(code, node)] = eval(expr, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), README, "exec"), namespace)
    return namespace, values


def test_readme_quick_start_gives_its_commented_values():
    ns, values = run_quick_start()
    a, b = ns["a"], ns["b"]
    assert values["procrustes_distance(a, b)"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    np.testing.assert_allclose(ns["t"] @ a @ ns["t"], b, atol=1e-12)
    np.testing.assert_allclose(ns["mid"], 2.25 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(values["res.mean.mat"], 2.25 * np.eye(2), atol=1e-10)
    assert values["res.converged, res.iterations"][0]
    assert np.all(np.diff(values["res.functional_trace"]) <= 0.0)
    np.testing.assert_allclose(values["pca.variances"], [0.5, 0.0], atol=1e-12)
