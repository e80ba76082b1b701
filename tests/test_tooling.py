"""The benchmark's tooling names functions the package still has."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    # parsed, not imported, so nothing is written under perfbench/
    tree = ast.parse(TRACER.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = [
        f"gaussjn.{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(f"gaussjn.{module}"), name, None))
    ]
    assert missing == []
