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
config (--config); unknown keys anywhere in it are rejected. The digital,
analog and train kinds and the energy, chain and sweep.configs sections
take their keys, types and required keys from the dataclass they build.
Long-running commands announce a {"event": "start", ...} line on stderr
before the main loop; failures print one {"error": ..., "message": ...}
JSON line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
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

# A dataclass field's annotation (a string under postponed evaluation) as a config type.
_FIELD_TYPES = {"int": _INT, "float": _REAL, "bool": _BOOL, "str": _STR}


def _fields(cls, *skip: str) -> dict:
    """The config keys of a section that builds cls: its fields not in skip, with their types."""
    return {f.name: _FIELD_TYPES[f.type] for f in dataclasses.fields(cls) if f.name not in skip}


def _required(cls) -> tuple:
    """The fields of cls without a default, which a section that builds cls must set."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING)


def _build(cls, spec: dict):
    """cls from the keys of a validated config section that name its fields."""
    return cls(**{f.name: spec[f.name] for f in dataclasses.fields(cls) if f.name in spec})


# Kinds and sections that build a dataclass take its fields; the rest list their keys.
_MODEL_KEYS = {
    "random": {"kind": _STR, "n_visible": _INT, "n_hidden": _INT, "sigma": _REAL},
    "file": {"kind": _STR, "path": _STR},
    "train": {"kind": _STR, "n_hidden": _INT, **_fields(TrainConfig)},
}
_DATA_KEYS = {
    "synth": {"kind": _STR, "dataset": _STR, "r": _INT, "count": _INT, "noise": _REAL},
    "idx": {"kind": _STR, "path": _STR, "threshold": _REAL},
}
_CHAIN_KEYS = _fields(ChainSettings, "n_samples")
_SAMPLER_KEYS = {
    "ideal": {"kind": _STR},
    "digital": {"kind": _STR, **_fields(DigitalSamplerConfig)},
    "analog": {"kind": _STR, **_fields(AnalogConfig)},
    "bernoulli": {"kind": _STR, "rate": _REAL, "n_bits": _INT},
}
_TRIALS_KEYS = {"num_trials": _INT, "n_per_trial": _INT}
_ENERGY_KEYS = _fields(EnergyModel)
_SWEEP_KEYS = {"configs": _LIST, "densities": _INTS}
_SWEEP_CONFIG_KEYS = {"label": _STR, **_fields(DigitalSamplerConfig, "random_groups")}
# Fields a kinded section must set, by kind (kind names differ across sections).
_REQUIRED = {
    "random": ("n_visible", "n_hidden", "sigma"),
    "file": ("path",),
    "train": ("n_hidden",) + _required(TrainConfig),
    "synth": ("dataset", "r", "count", "noise"),
    "idx": ("path",),
    "digital": _required(DigitalSamplerConfig),
    "analog": _required(AnalogConfig),
    "bernoulli": ("rate", "n_bits"),
}
_SWEEP_CONFIG_REQUIRED = ("label",) + _required(DigitalSamplerConfig)

DEFAULT_DENSITIES = (2, 5, 10, 50, 100, 200, 255)


def _default_config() -> dict:
    return {
        "model": {"kind": "random", "n_visible": 16, "n_hidden": 8, "sigma": 0.4},
        "data": {"kind": "synth", "dataset": "two-cluster", "r": 16, "count": 512,
                 "noise": 0.1},
        "chain": {"burn_in": 1000, "thin": 10},
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


def _check_fields(obj, types: dict, where: str, required=()) -> None:
    """Reject unknown keys, values of the wrong type and missing required keys."""
    _check_keys(obj, types, where)
    for key, value in obj.items():
        if not _IS_TYPE[types[key]](value):
            raise ConfigError(f"{where}.{key} must be {types[key]}, got {value!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}.{key} is required")


def _check_kinded(obj, tables, where: str) -> None:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in tables:
        raise ConfigError(f"{where}.kind must be one of {sorted(tables)}, got {kind!r}")
    _check_fields(obj, tables[kind], where, _REQUIRED.get(kind, ()))


# The object sections in check order, each with its check and key table.
_SECTIONS = {"model": (_check_kinded, _MODEL_KEYS), "data": (_check_kinded, _DATA_KEYS),
             "chain": (_check_fields, _CHAIN_KEYS), "sampler_a": (_check_kinded, _SAMPLER_KEYS),
             "sampler_b": (_check_kinded, _SAMPLER_KEYS), "trials": (_check_fields, _TRIALS_KEYS),
             "energy": (_check_fields, _ENERGY_KEYS), "sweep": (_check_fields, _SWEEP_KEYS)}


def validate_run_config(user: dict) -> None:
    _check_keys(user, {*_SECTIONS, "out_dir"}, "config")
    for where, (check, table) in _SECTIONS.items():
        if where in user:
            check(user[where], table, where)
    for i, entry in enumerate(user.get("sweep", {}).get("configs", [])):
        _check_fields(entry, _SWEEP_CONFIG_KEYS, f"sweep.configs[{i}]", _SWEEP_CONFIG_REQUIRED)
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
        return cd1_train(data, data.shape[1], spec["n_hidden"], _build(TrainConfig, spec), seed)
    raise ConfigError(f"model kind {spec['kind']!r} not usable here")


def _dataset_from_config(cfg: dict, seed: int) -> np.ndarray:
    spec = cfg["data"]
    if spec["kind"] == "synth":
        return synth_dataset(spec["dataset"], spec["r"], spec["count"],
                             spec["noise"], seed)
    return load_idx_images(spec["path"], spec.get("threshold", 0.5))


def _settings_from_config(cfg: dict, n_samples: int) -> ChainSettings:
    return _build(ChainSettings, {**cfg["chain"], "n_samples": n_samples})


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
        kernel = DigitalKernel(model, _build(DigitalSamplerConfig, spec), seed)
    else:
        kernel = AnalogKernel(model, _build(AnalogConfig, spec))
    return SamplerSpec(kernel, _settings_from_config(cfg, n_samples))


def _leak_base_from_config(cfg: dict) -> DigitalSamplerConfig:
    """The leak sweep's digital config: sampler_b's when digital, else preset G2."""
    spec = cfg["sampler_b"]
    return (_build(DigitalSamplerConfig, spec) if spec["kind"] == "digital"
            else dict(PRESET_CONFIGS)["G2"])


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
    hyper = _build(TrainConfig, spec)
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
    return [(e["label"], _build(DigitalSamplerConfig, e)) for e in entries]


def cmd_sweep_params(args) -> int:
    cfg = load_run_config(args.config)
    out = _out_dir(cfg, args)
    num_trials, n_per_trial = _trial_fields(cfg, args)
    model = _model_from_config(cfg, args.seed)
    settings = _settings_from_config(cfg, n_per_trial)
    configs = _sweep_configs(cfg)
    _announce("sweep-params", num_configs=len(configs), num_trials=num_trials,
              n_per_trial=n_per_trial)
    reports = parameter_sweep(model, configs, settings, num_trials=num_trials,
                              base_seed=args.seed,
                              energy_model=_build(EnergyModel, cfg["energy"]))
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
                                 num_trials=num_trials, base_seed=args.seed,
                                 energy_model=_build(EnergyModel, cfg["energy"]))
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
    plan = TrialPlan(sampler_a=spec, sampler_b=spec, num_trials=num_trials,
                     base_seed=args.seed)
    _announce("null-check", num_trials=num_trials, n_per_trial=n_per_trial,
              sampler=spec.kernel.label)
    stats = run_trials(plan)
    doc = stats_json(stats, {"sampler": spec.kernel.label, "n_per_trial": n_per_trial})
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
    except (ValueError, KeyError, OSError, MemoryError, RuntimeError) as exc:
        # ConfigError and ModelFormatError are ValueErrors; a MemoryError
        # means an input too large to process; a RuntimeError is a solver failure.
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
