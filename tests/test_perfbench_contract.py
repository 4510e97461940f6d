"""The traced benchmark wraps csgnn functions by name; a rename must fail here."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_bound():
    # executed from its source text, so no bytecode cache lands next to it
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    targets = namespace["TARGETS"]
    missing = [f"csgnn.{mod}.{fn}" for mod, fn, _, _ in targets
               if not callable(getattr(importlib.import_module(f"csgnn.{mod}"), fn, None))]
    assert targets and missing == []
