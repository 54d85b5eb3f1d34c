"""The benchmark's tracer (bench/spans.py) patches package functions and
kernel step methods by name. Every name it lists must resolve, or a traced
benchmark run fails only once it starts."""

import importlib
import math
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


def test_chain_counts_read_a_stacked_sweep_call(monkeypatch):
    """A traced sweep hands the tracer's chain counter the positional
    arguments of one stacked run_chains call per trial block; its step counts
    and computed draw bytes must equal the sums over the stack's parts."""
    from gibbsmatch import harness
    from gibbsmatch.neuro import PRESET_CONFIGS
    from gibbsmatch.rbm import ChainSettings, random_model

    calls = []
    real = harness.run_chains

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "run_chains", spy)
    settings = ChainSettings(n_samples=4, burn_in=10, thin=2)
    configs = list(PRESET_CONFIGS)[:3]
    harness.parameter_sweep(random_model(6, 3, 0.4, seed=1), configs, settings,
                            num_trials=2, base_seed=5)
    [args] = calls
    kernel = args[0]
    assert len(kernel.parts) == 1 + len(configs)
    counts = spans._run_chains_counts(args, {})
    assert counts["steps"] == sum(n * settings.total_steps for _, n in kernel.parts)
    assert counts["reference_steps"] == kernel.parts[0][1] * settings.total_steps
    draws = sum(8 * n * (settings.total_steps * (k.n_uniforms_per_step + k.n_normals_per_step)
                         + k.n_visible) for k, n in kernel.parts)
    assert math.isclose(counts["draw_bytes"], draws, rel_tol=1e-12)
