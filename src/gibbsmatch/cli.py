"""Command-line front end.

Subcommands:
    train        fit an RBM with one-step contrastive divergence, save it
    sample       run one sampler chain, save the sample dump
    test         Crossmatch test between two sample dumps
    sweep-params EPEff comparison across digital sampler presets/configs
    sweep-leak   EPEff/fidelity sweep over leak densities
    null-check   self-vs-self calibration of the test pipeline

All randomness hangs off the required --seed flag; repeated invocations with
the same inputs are byte-identical. Commands read an optional JSON run
config (--config); unknown keys anywhere in it are rejected. Long-running
commands announce a {"event": "start", ...} line on stderr before the main
loop; failures print one {"error": ..., "message": ...} JSON line on stderr
and exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .chains import BernoulliKernel, IdealKernel, run_chain
from .formats import (load_idx_images, load_model, load_samples, save_model,
                      save_samples, synth_dataset)
from .harness import (HISTOGRAM_EDGES, EnergyModel, SamplerSpec, TrialPlan,
                      leak_density_sweep, parameter_sweep, run_trials)
from .neuro import (PRESET_CONFIGS, AnalogConfig, AnalogKernel, DigitalKernel,
                    DigitalSamplerConfig)
from .rbm import ChainSettings, RbmModel, TrainConfig, cd1_train, random_model
from .reports import (histogram_csv, outcome_json, stats_json, svg_bar_chart,
                      svg_line_chart, sweep_csv)

__all__ = ["main", "load_run_config", "ConfigError"]


class ConfigError(ValueError):
    """A run config failed schema validation."""


# The type each config field must hold, named as the error message names it.
_INT, _REAL, _STR, _BOOL = "an integer", "a number", "a string", "true or false"
_LIST, _INTS = "a list", "a list of integers"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_IS_TYPE = {
    _INT: _is_int,
    _REAL: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    _STR: lambda v: isinstance(v, str),
    _BOOL: lambda v: isinstance(v, bool),
    _LIST: lambda v: isinstance(v, list),
    _INTS: lambda v: isinstance(v, list) and all(_is_int(x) for x in v),
}

_ROOT_KEYS = {"model", "data", "chain", "sampler_a", "sampler_b", "trials",
              "energy", "sweep", "out_dir"}
_MODEL_KEYS = {
    "random": {"kind": _STR, "n_visible": _INT, "n_hidden": _INT, "sigma": _REAL},
    "file": {"kind": _STR, "path": _STR},
    "train": {"kind": _STR, "n_hidden": _INT, "epochs": _INT, "learning_rate": _REAL,
              "batch_size": _INT, "init_sigma": _REAL},
}
_DATA_KEYS = {
    "synth": {"kind": _STR, "dataset": _STR, "r": _INT, "count": _INT, "noise": _REAL},
    "idx": {"kind": _STR, "path": _STR, "threshold": _REAL},
}
_CHAIN_KEYS = {"burn_in": _INT, "thin": _INT, "init": _STR}
_SAMPLER_KEYS = {
    "ideal": {"kind": _STR},
    "digital": {"kind": _STR, "window": _INT, "threshold": _INT, "threshold_bits": _INT,
                "leak": _INT, "scale": _REAL, "leak_density": _INT, "random_groups": _BOOL},
    "analog": {"kind": _STR, "capacitance": _REAL, "g_leak": _REAL, "threshold": _REAL,
               "v_reset": _REAL, "noise_sigma": _REAL, "dt": _REAL, "window": _INT,
               "noise_density": _INT},
    "bernoulli": {"kind": _STR, "rate": _REAL, "n_bits": _INT},
}
_TRIALS_KEYS = {"num_trials": _INT, "n_per_trial": _INT, "matching": _STR}
_ENERGY_KEYS = {"e_active": _REAL, "e_core_static": _REAL, "core_size": _INT}
_SWEEP_KEYS = {"configs": _LIST, "densities": _INTS}
_SWEEP_CONFIG_KEYS = {"label": _STR, "window": _INT, "threshold": _INT,
                      "threshold_bits": _INT, "leak": _INT, "scale": _REAL,
                      "leak_density": _INT}

DEFAULT_DENSITIES = (2, 5, 10, 50, 100, 200, 255)


def _default_config() -> dict:
    return {
        "model": {"kind": "random", "n_visible": 16, "n_hidden": 8, "sigma": 0.4},
        "data": {"kind": "synth", "dataset": "two-cluster", "r": 16, "count": 512,
                 "noise": 0.1},
        "chain": {"burn_in": 1000, "thin": 10, "init": "random-uniform"},
        "sampler_a": {"kind": "ideal"},
        "sampler_b": {"kind": "ideal"},
        "trials": {"num_trials": 2000, "n_per_trial": 50},
        "energy": {"e_active": 1.0, "e_core_static": 10.0, "core_size": 256},
        "sweep": {},
        "out_dir": ".",
    }


def _check_keys(obj, allowed, where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _check_fields(obj, types: dict, where: str) -> None:
    """Reject unknown keys and values of the wrong type."""
    _check_keys(obj, types, where)
    for key, value in obj.items():
        if not _IS_TYPE[types[key]](value):
            raise ConfigError(f"{where}.{key} must be {types[key]}, got {value!r}")


def _check_kinded(obj, tables, where: str) -> None:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigError(f"{where}.kind must be one of {sorted(tables)}, got {kind!r}")
    _check_fields(obj, tables[kind], where)


def validate_run_config(user: dict) -> None:
    _check_keys(user, _ROOT_KEYS, "config")
    if "model" in user:
        _check_kinded(user["model"], _MODEL_KEYS, "model")
    if "data" in user:
        _check_kinded(user["data"], _DATA_KEYS, "data")
    if "chain" in user:
        _check_fields(user["chain"], _CHAIN_KEYS, "chain")
    for side in ("sampler_a", "sampler_b"):
        if side in user:
            _check_kinded(user[side], _SAMPLER_KEYS, side)
    if "trials" in user:
        _check_fields(user["trials"], _TRIALS_KEYS, "trials")
        # Every test uses the exact matching; for one release the retired key
        # may still name it, and then has no effect.
        matching = user["trials"].get("matching", "auto")
        if matching not in ("auto", "optimal"):
            raise ConfigError("trials.matching has no effect and may only be 'auto' or "
                              f"'optimal', got {matching!r}")
    if "energy" in user:
        _check_fields(user["energy"], _ENERGY_KEYS, "energy")
    if "sweep" in user:
        _check_fields(user["sweep"], _SWEEP_KEYS, "sweep")
        for i, entry in enumerate(user["sweep"].get("configs", [])):
            _check_fields(entry, _SWEEP_CONFIG_KEYS, f"sweep.configs[{i}]")
    if "out_dir" in user and not isinstance(user["out_dir"], str):
        raise ConfigError("out_dir must be a string")


def load_run_config(path) -> dict:
    """Parse, validate, and fill in defaults for a run config file."""
    cfg = _default_config()
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        validate_run_config(user)
        for key, value in user.items():
            if isinstance(value, dict) and "kind" not in value:
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


def _model_from_config(cfg: dict, seed: int) -> RbmModel:
    spec = cfg["model"]
    if spec["kind"] == "random":
        return random_model(spec["n_visible"], spec["n_hidden"], spec["sigma"], seed)
    if spec["kind"] == "file":
        return load_model(spec["path"])
    if spec["kind"] == "train":
        data = _dataset_from_config(cfg, seed)
        return cd1_train(data, data.shape[1], spec["n_hidden"], _train_config(spec), seed)
    raise ConfigError(f"model kind {spec['kind']!r} not usable here")


def _train_config(spec: dict) -> TrainConfig:
    return TrainConfig(**{k: v for k, v in spec.items() if k not in ("kind", "n_hidden")})


def _dataset_from_config(cfg: dict, seed: int) -> np.ndarray:
    spec = cfg["data"]
    if spec["kind"] == "synth":
        return synth_dataset(spec["dataset"], spec["r"], spec["count"],
                             spec["noise"], seed)
    return load_idx_images(spec["path"], spec.get("threshold", 0.5))


def _settings_from_config(cfg: dict, n_samples: int) -> ChainSettings:
    chain = cfg["chain"]
    return ChainSettings(n_samples=n_samples, burn_in=chain["burn_in"],
                         thin=chain["thin"], init=chain["init"])


def _digital_from(spec: dict) -> DigitalSamplerConfig:
    return DigitalSamplerConfig(
        window=spec["window"], threshold=spec["threshold"],
        threshold_bits=spec["threshold_bits"], leak=spec["leak"], scale=spec["scale"],
        leak_density=spec.get("leak_density", 1),
        random_groups=spec.get("random_groups", False))


def _sampler_from_config(cfg: dict, seed: int, n_samples: int) -> SamplerSpec:
    """sampler_a as a chain kernel and its schedule: the one place a kind becomes a kernel.

    A bernoulli source builds no model and runs on its own schedule.
    """
    spec = cfg["sampler_a"]
    kind = spec["kind"]
    if kind == "bernoulli":
        kernel = BernoulliKernel(spec["rate"], spec["n_bits"])
        return SamplerSpec(kernel, kernel.schedule(n_samples))
    model = _model_from_config(cfg, seed)
    if kind == "ideal":
        kernel = IdealKernel(model)
    elif kind == "digital":
        kernel = DigitalKernel(model, _digital_from(spec), seed)
    else:
        kernel = AnalogKernel(model, AnalogConfig(**{k: v for k, v in spec.items()
                                                     if k != "kind"}))
    return SamplerSpec(kernel, _settings_from_config(cfg, n_samples))


def _leak_base_from_config(cfg: dict) -> DigitalSamplerConfig:
    """The leak sweep's digital config: sampler_b's when digital, else preset G2."""
    spec = cfg["sampler_b"]
    return _digital_from(spec) if spec["kind"] == "digital" else dict(PRESET_CONFIGS)["G2"]


def _energy_from_config(cfg: dict) -> EnergyModel:
    return EnergyModel(**cfg["energy"])


def _trial_fields(cfg: dict, args) -> tuple[int, int]:
    t = cfg["trials"]
    num_trials = getattr(args, "trials", None)
    n_per_trial = getattr(args, "n_per_trial", None)
    return (num_trials if num_trials is not None else t["num_trials"],
            n_per_trial if n_per_trial is not None else t["n_per_trial"])


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out) if args.out is not None else Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _announce(command: str, **fields) -> None:
    print(json.dumps({"event": "start", "command": command, **fields}),
          file=sys.stderr, flush=True)


def _emit(path: Path, text: str) -> None:
    path.write_bytes(text.encode("ascii"))
    print(str(path))


# --- subcommands ------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if cfg["model"]["kind"] != "train":
        cfg["model"] = {"kind": "train", "n_hidden": 8}
    out = _out_dir(cfg, args)
    data = _dataset_from_config(cfg, args.seed)
    spec = cfg["model"]
    hyper = _train_config(spec)
    model, history = cd1_train(data, data.shape[1], spec["n_hidden"], hyper,
                               args.seed, return_history=True)
    path = out / "model.txt"
    save_model(model, path)
    print(json.dumps({"model": str(path), "epochs": hyper.epochs,
                      "final_reconstruction_error": history[-1]}, indent=2))
    return 0


def cmd_sample(args) -> int:
    cfg = load_run_config(args.config)
    out = _out_dir(cfg, args)
    _, n_per_trial = _trial_fields(cfg, args)
    spec = _sampler_from_config(cfg, args.seed, n_per_trial)
    path = out / "samples.txt"
    save_samples(run_chain(spec.kernel, spec.settings, args.seed), path)
    print(str(path))
    return 0


def cmd_test(args) -> int:
    from .crossmatch import crossmatch_test
    x = load_samples(args.samples_a)
    y = load_samples(args.samples_b)
    outcome = crossmatch_test(x, y, tie_seed=args.seed)
    doc = outcome_json(outcome)
    sys.stdout.write(doc)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "outcome.json").write_bytes(doc.encode("ascii"))
    return 0


def _sweep_configs(cfg: dict) -> list[tuple[str, DigitalSamplerConfig]]:
    entries = cfg["sweep"].get("configs")
    if not entries:
        return list(PRESET_CONFIGS)
    return [(e["label"], _digital_from(e)) for e in entries]


def cmd_sweep_params(args) -> int:
    cfg = load_run_config(args.config)
    out = _out_dir(cfg, args)
    num_trials, n_per_trial = _trial_fields(cfg, args)
    model = _model_from_config(cfg, args.seed)
    settings = _settings_from_config(cfg, n_per_trial)
    configs = _sweep_configs(cfg)
    _announce("sweep-params", num_configs=len(configs), num_trials=num_trials,
              n_per_trial=n_per_trial)
    reports = parameter_sweep(model, configs, settings, n_per_trial=n_per_trial,
                              num_trials=num_trials, base_seed=args.seed,
                              energy_model=_energy_from_config(cfg))
    _emit(out / "sweep_params.csv", sweep_csv(reports))
    _emit(out / "epeff_bars.svg",
          svg_bar_chart([r.label for r in reports], [r.epeff for r in reports],
                        "Energy Performance Efficiency by sampler config", "EPEff"))
    return 0


def cmd_sweep_leak(args) -> int:
    cfg = load_run_config(args.config)
    out = _out_dir(cfg, args)
    num_trials, n_per_trial = _trial_fields(cfg, args)
    model = _model_from_config(cfg, args.seed)
    settings = _settings_from_config(cfg, n_per_trial)
    densities = cfg["sweep"].get("densities") or list(DEFAULT_DENSITIES)
    base = _leak_base_from_config(cfg)
    _announce("sweep-leak", densities=list(densities), num_trials=num_trials,
              n_per_trial=n_per_trial)
    reports = leak_density_sweep(model, base, densities, settings,
                                 n_per_trial=n_per_trial, num_trials=num_trials,
                                 base_seed=args.seed,
                                 energy_model=_energy_from_config(cfg))
    labels = [str(d) for d in densities]
    _emit(out / "sweep_leak.csv", sweep_csv(reports))
    _emit(out / "leak_mean_p.svg",
          svg_line_chart(labels, {"mean p": [r.mean_p for r in reports]},
                         "Fidelity vs leak density", "leak density", "mean p-value"))
    _emit(out / "leak_epeff.svg",
          svg_line_chart(labels, {"EPEff": [r.epeff for r in reports]},
                         "EPEff vs leak density", "leak density", "EPEff"))
    return 0


def cmd_null_check(args) -> int:
    cfg = load_run_config(args.config)
    out = _out_dir(cfg, args)
    num_trials, n_per_trial = _trial_fields(cfg, args)
    spec = _sampler_from_config(cfg, args.seed, n_per_trial)
    plan = TrialPlan(sampler_a=spec, sampler_b=spec, n_per_trial=n_per_trial,
                     num_trials=num_trials, base_seed=args.seed)
    _announce("null-check", num_trials=num_trials, n_per_trial=n_per_trial,
              sampler=spec.label())
    stats = run_trials(plan)
    doc = stats_json(stats, {"sampler": spec.label(), "n_per_trial": n_per_trial})
    sys.stdout.write(doc)
    _emit(out / "null_check.csv", histogram_csv(stats, HISTOGRAM_EDGES))
    (out / "null_check.json").write_bytes(doc.encode("ascii"))
    return 0


# --- argument parsing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, *, config=True, out=True, trials=True) -> None:
    p.add_argument("--seed", type=int, required=True,
                   help="master seed; controls every random draw")
    if config:
        p.add_argument("--config", metavar="PATH", help="JSON run config")
    if out:
        p.add_argument("--out", metavar="DIR", help="output directory")
    if trials:
        p.add_argument("--trials", type=int, metavar="N", help="number of trials")
        p.add_argument("--n-per-trial", type=int, metavar="N",
                       help="samples per group per trial")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsmatch",
        description="Crossmatch fidelity testing and EPEff tuning for RBM Gibbs samplers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit an RBM with CD-1 and save it")
    _add_common(p, trials=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="run one sampler chain and dump samples")
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("test", help="Crossmatch test between two sample dumps")
    p.add_argument("samples_a", help="first sample dump")
    p.add_argument("samples_b", help="second sample dump")
    _add_common(p, config=False, trials=False)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("sweep-params", help="EPEff sweep across sampler configs")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_params)

    p = sub.add_parser("sweep-leak", help="EPEff/fidelity sweep over leak densities")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_leak)

    p = sub.add_parser("null-check", help="self-vs-self calibration report")
    _add_common(p)
    p.set_defaults(func=cmd_null_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError) as exc:
        # ConfigError and ModelFormatError are ValueErrors; a MemoryError
        # means an input too large to process.
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
