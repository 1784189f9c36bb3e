"""Every function the benchmark tracer wraps must exist, so that renaming or
dropping one fails here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "mfbench" / "tracer.py"


def _traced_names() -> tuple[str, ...]:
    """The TRACED tuple, read from the tracer's source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED tuple in {TRACER}")


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    module_name, _, attr = name.partition(".")
    obj = importlib.import_module(f"modforms.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
