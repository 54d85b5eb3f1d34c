"""The benchmark's tracer (bench/spans.py) patches package functions and
kernel step methods by name. Every name it lists must resolve, or a traced
benchmark run fails only once it starts."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def test_every_traced_name_resolves():
    def module(name):
        return importlib.import_module(f"gibbsmatch.{name}")

    missing = [f"{mod}.{fn}" for mod, fn, _ in spans.TRACED_FUNCTIONS
               if not callable(getattr(module(mod), fn, None))]
    missing += [f"{mod}.{cls}.step" for mod, cls in spans.TRACED_STEPS
                if "step" not in vars(getattr(module(mod), cls, object))]
    assert missing == []
