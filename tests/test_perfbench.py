"""Checks on the benchmark's hooks into the package (perfbench/)."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_attributes_exist():
    # The traced run wraps each (module, attribute) by name, so a rename or
    # deletion in the package must fail here rather than in the traced run.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
