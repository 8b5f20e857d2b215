"""The benchmark traces functions by (module, attribute) name; a renamed
function would silently drop its per-layer metric, so every name must
resolve."""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_targets():
    """The (module, attribute) pairs of ``TARGETS`` in the benchmark's
    child script, read from its source without running it."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TARGETS in {CHILD}")


@pytest.mark.parametrize("module, attribute", traced_targets())
def test_traced_target_is_callable(module, attribute):
    owner = importlib.import_module(f"pathfact.{module}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
