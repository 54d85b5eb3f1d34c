"""Command-line behavior, run configs, and emitted artifacts.

Everything runs in-process through main(argv) so coverage and tracebacks
stay useful; the acceptance suite separately exercises the real interpreter
entry point.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from gibbsmatch import cli, crossmatch
from gibbsmatch.cli import ConfigError, load_run_config, main, validate_run_config
from gibbsmatch.formats import load_samples
from gibbsmatch.harness import EnergyModel
from gibbsmatch.neuro import AnalogConfig, DigitalSamplerConfig
from gibbsmatch.rbm import ChainSettings, TrainConfig
from oracles import parse_sweep_csv


def write_cfg(tmp_path, name="cfg.json", **sections):
    cfg = {
        "model": {"kind": "random", "n_visible": 8, "n_hidden": 4, "sigma": 0.4},
        "chain": {"burn_in": 60, "thin": 2},
        "trials": {"num_trials": 4, "n_per_trial": 10},
    }
    cfg.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def stderr_events(capsys):
    err = capsys.readouterr().err
    return [json.loads(line) for line in err.splitlines() if line.startswith("{")]


# --- run config ---------------------------------------------------------------

def test_defaults_without_config():
    cfg = load_run_config(None)
    assert cfg["model"]["n_visible"] == 16
    assert cfg["trials"]["num_trials"] == 2000
    assert cfg["chain"]["burn_in"] == 1000


def test_partial_sections_merge(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"chain": {"thin": 3}}))
    cfg = load_run_config(path)
    assert cfg["chain"]["thin"] == 3
    assert cfg["chain"]["burn_in"] == 1000  # untouched default


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        validate_run_config({"modle": {}})
    with pytest.raises(ConfigError, match="model"):
        validate_run_config({"model": {"kind": "random", "n_visible": 4,
                                       "n_hidden": 2, "sigma": 0.1, "rank": 3}})
    with pytest.raises(ConfigError, match="kind"):
        validate_run_config({"sampler_a": {"rate": 0.5}})
    with pytest.raises(ConfigError, match="sampler_b.kind"):
        validate_run_config({"sampler_b": {"kind": "fpga"}})
    with pytest.raises(ConfigError, match=r"sweep.configs\[0\]"):
        validate_run_config({"sweep": {"configs": [{"label": "x", "volts": 5}]}})
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['matching'\] in trials"):
        validate_run_config({"trials": {"matching": "greedy"}})
    with pytest.raises(ConfigError, match="out_dir"):
        validate_run_config({"out_dir": 7})


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_config(path)


# --- sample / test pipeline ------------------------------------------------------

def test_sample_writes_loadable_dump(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = main(["sample", "--seed", "5", "--config", cfg, "--out", str(tmp_path / "o"),
               "--n-per-trial", "12"])
    assert rc == 0
    batch = load_samples(tmp_path / "o" / "samples.txt")
    assert batch.samples.shape == (12, 8)
    assert batch.sampler_id == "ideal"
    assert batch.seed == 5


def test_sample_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    main(["sample", "--seed", "9", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["sample", "--seed", "9", "--config", cfg, "--out", str(tmp_path / "b")])
    assert ((tmp_path / "a" / "samples.txt").read_bytes()
            == (tmp_path / "b" / "samples.txt").read_bytes())


def test_sample_bernoulli_source(tmp_path):
    cfg = write_cfg(tmp_path, sampler_a={"kind": "bernoulli", "rate": 0.2, "n_bits": 10})
    rc = main(["sample", "--seed", "3", "--config", cfg, "--out", str(tmp_path / "o"),
               "--n-per-trial", "400"])
    assert rc == 0
    batch = load_samples(tmp_path / "o" / "samples.txt")
    assert batch.sampler_id.startswith("bernoulli")
    assert 0.15 < batch.samples.mean() < 0.25


def test_sample_digital_sampler(tmp_path):
    cfg = write_cfg(tmp_path, sampler_a={"kind": "digital", "window": 2, "threshold": 0,
                                         "threshold_bits": 8, "leak": 100, "scale": 50})
    rc = main(["sample", "--seed", "3", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert load_samples(tmp_path / "o" / "samples.txt").sampler_id.startswith("digital(")


def test_identical_dumps_test_at_p_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    main(["sample", "--seed", "5", "--config", cfg, "--out", str(tmp_path / "a"),
          "--n-per-trial", "12"])
    main(["sample", "--seed", "5", "--config", cfg, "--out", str(tmp_path / "b"),
          "--n-per-trial", "12"])
    capsys.readouterr()
    rc = main(["test", str(tmp_path / "a" / "samples.txt"),
               str(tmp_path / "b" / "samples.txt"), "--seed", "0",
               "--out", str(tmp_path / "t")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # duplicate rows sit at distance zero, so every pair crosses the groups
    assert doc["a_obs"] == 12
    assert doc["p_value"] == 1.0
    assert doc["method"] == "optimal"
    on_disk = json.loads((tmp_path / "t" / "outcome.json").read_text())
    assert on_disk == doc


def test_a_p_value_below_the_double_floor_is_reported(tmp_path, capsys):
    """Two 1100-sample dumps from far-apart sources: the tail F(a_obs) is
    below the smallest positive double. p_value reads that double, and
    log10_p gives the tail's size."""
    for name, rate in (("lo", 0.1), ("hi", 0.9)):
        cfg = write_cfg(tmp_path, name=f"{name}.json",
                        sampler_a={"kind": "bernoulli", "rate": rate, "n_bits": 64})
        assert main(["sample", "--seed", "3", "--config", cfg, "--out", str(tmp_path / name),
                     "--n-per-trial", "1100"]) == 0
    capsys.readouterr()
    assert main(["test", str(tmp_path / "lo" / "samples.txt"),
                 str(tmp_path / "hi" / "samples.txt"), "--seed", "1",
                 "--out", str(tmp_path / "t")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p_value"] == crossmatch.P_FLOOR
    assert doc["log10_p"] == crossmatch._tail(doc["a_obs"], 1100)[1]
    assert doc["log10_p"] < -323
    assert json.loads((tmp_path / "t" / "outcome.json").read_text()) == doc


def test_train_then_sample_from_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path,
                    model={"kind": "train", "n_hidden": 4, "epochs": 2},
                    data={"kind": "synth", "dataset": "two-cluster", "r": 8,
                          "count": 64, "noise": 0.1})
    rc = main(["train", "--seed", "2", "--config", cfg, "--out", str(tmp_path / "m")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    model_path = tmp_path / "m" / "model.txt"
    assert report["model"] == str(model_path)
    assert report["final_reconstruction_error"] > 0

    cfg2 = write_cfg(tmp_path, name="cfg2.json",
                     model={"kind": "file", "path": str(model_path)})
    rc = main(["sample", "--seed", "4", "--config", cfg2, "--out", str(tmp_path / "s")])
    assert rc == 0
    assert load_samples(tmp_path / "s" / "samples.txt").samples.shape[1] == 8


# --- trial commands ------------------------------------------------------------------

def test_null_check_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    rc = main(["null-check", "--seed", "11", "--config", cfg, "--out", str(out)])
    assert rc == 0
    events = stderr_events(capsys)
    assert events[0]["event"] == "start"
    assert events[0]["command"] == "null-check"
    assert events[0]["num_trials"] == 4
    doc = json.loads((out / "null_check.json").read_text())
    assert doc["num_trials"] == 4
    assert 0 < doc["mean_p"] <= 1
    csv_text = (out / "null_check.csv").read_text()
    assert csv_text.startswith("bin_low,bin_high,count\n")

    # byte-identical on rerun
    rerun = tmp_path / "o2"
    main(["null-check", "--seed", "11", "--config", cfg, "--out", str(rerun)])
    assert (out / "null_check.csv").read_bytes() == (rerun / "null_check.csv").read_bytes()
    assert (out / "null_check.json").read_bytes() == (rerun / "null_check.json").read_bytes()


def test_sweep_params_presets(tmp_path, capsys):
    cfg = write_cfg(tmp_path, trials={"num_trials": 2, "n_per_trial": 8})
    out = tmp_path / "o"
    rc = main(["sweep-params", "--seed", "21", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rows = parse_sweep_csv((out / "sweep_params.csv").read_text())
    assert {r["label"] for r in rows} == {"G1", "G2", "G3", "G4", "G5", "G6", "G7"}
    epeffs = [r["epeff"] for r in rows]
    assert epeffs == sorted(epeffs, reverse=True)
    ET.fromstring((out / "epeff_bars.svg").read_text())
    assert stderr_events(capsys)[0]["num_configs"] == 7


def test_sweep_params_custom_configs(tmp_path):
    cfg = write_cfg(tmp_path, trials={"num_trials": 2, "n_per_trial": 8},
                    sweep={"configs": [
                        {"label": "fast", "window": 1, "threshold": -80,
                         "threshold_bits": 8, "leak": 102, "scale": 50},
                        {"label": "slow", "window": 4, "threshold": 20,
                         "threshold_bits": 8, "leak": 30, "scale": 50},
                    ]})
    out = tmp_path / "o"
    assert main(["sweep-params", "--seed", "21", "--config", cfg, "--out", str(out)]) == 0
    rows = parse_sweep_csv((out / "sweep_params.csv").read_text())
    assert {r["label"] for r in rows} == {"fast", "slow"}


def test_sweep_leak_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, trials={"num_trials": 2, "n_per_trial": 8},
                    sweep={"densities": [1, 4]})
    out = tmp_path / "o"
    rc = main(["sweep-leak", "--seed", "31", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rows = parse_sweep_csv((out / "sweep_leak.csv").read_text())
    assert [r["label"] for r in rows] == ["ld=1", "ld=4"]
    assert rows[0]["energy"] > rows[1]["energy"]
    ET.fromstring((out / "leak_mean_p.svg").read_text())
    ET.fromstring((out / "leak_epeff.svg").read_text())
    assert stderr_events(capsys)[0]["densities"] == [1, 4]


def test_trial_flags_override_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    rc = main(["null-check", "--seed", "1", "--config", cfg, "--out", str(out),
               "--trials", "2", "--n-per-trial", "6"])
    assert rc == 0
    doc = json.loads((out / "null_check.json").read_text())
    assert doc["num_trials"] == 2
    assert doc["n_per_trial"] == 6


def test_config_out_dir_is_used_without_out_flag(tmp_path):
    cfg = write_cfg(tmp_path, out_dir=str(tmp_path / "from-config"))
    assert main(["null-check", "--seed", "2", "--config", cfg, "--trials", "2"]) == 0
    written = sorted(p.name for p in (tmp_path / "from-config").iterdir())
    assert written == ["null_check.csv", "null_check.json"]


@pytest.mark.parametrize("argv", [
    ["test", "a.txt", "b.txt"], ["null-check"], ["sweep-params"], ["sweep-leak"]])
def test_matching_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1", "--matching", "optimal"])
    assert exc.value.code == 2
    assert "--matching" in capsys.readouterr().err


# --- failure modes ---------------------------------------------------------------------

def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"kind": "random", "n_visible": 4,
                                          "n_hidden": 2, "sigma": 0.1},
                                "bogus": 1}))
    rc = main(["null-check", "--seed", "1", "--config", str(path)])
    assert rc == 2
    err = stderr_events(capsys)
    assert err[-1]["error"] == "ConfigError"
    assert "bogus" in err[-1]["message"]


G4 = {"window": 8, "threshold": 79, "threshold_bits": 9, "leak": 49, "scale": 50}


FEW_TRIALS = {"num_trials": 2, "n_per_trial": 4}  # a short run if a bad value gets through


@pytest.mark.parametrize("command, sections, field", [
    ("null-check", {"chain": {"burn_in": "10"}}, "chain.burn_in"),
    ("sweep-leak", {"chain": {"burn_in": "10"}}, "chain.burn_in"),
    ("null-check", {"model": {"kind": "random", "n_visible": 16.5, "n_hidden": 4,
                              "sigma": 0.4}}, "model.n_visible"),
    ("null-check", {"sampler_a": {"kind": "analog", "window": 2.5}}, "sampler_a.window"),
    ("null-check", {"sampler_a": {"kind": "bernoulli", "rate": "0.5", "n_bits": 4}},
     "sampler_a.rate"),
    ("sweep-leak", {"sweep": {"densities": "ab"}}, "sweep.densities"),
    ("sweep-leak", {"energy": {"e_active": "1"}}, "energy.e_active"),
    ("null-check", {"trials": {"num_trials": True}}, "trials.num_trials"),
    ("sweep-leak", {"sampler_b": {"kind": "digital", "window": 1, "threshold": 0,
                                  "threshold_bits": 8, "leak": 0, "scale": 50,
                                  "random_groups": 1}}, "sampler_b.random_groups"),
    ("sweep-params", {"sweep": {"configs": 5}}, "sweep.configs"),
    ("null-check", {"model": {"kind": ["random"]}}, "model.kind"),
    # the retired key is now an unknown key, whatever its value
    pytest.param("null-check", {"trials": {"matching": "greedy"}},
                 "unknown key(s) ['matching'] in trials",
                 id="null-check-sections11-trials.matching"),
    # json reads NaN, Infinity and -Infinity as floats; none, nor an integer
    # beyond the largest double, is a finite number
    ("sample", {"sampler_a": {"kind": "digital", **G4, "scale": float("inf")},
                "trials": FEW_TRIALS}, "sampler_a.scale"),
    ("sweep-params", {"energy": {"e_active": float("inf")}, "trials": FEW_TRIALS,
                      "sweep": {"configs": [{"label": "a", **G4}]}}, "energy.e_active"),
    ("null-check", {"sampler_a": {"kind": "analog", "noise_sigma": float("nan")},
                    "trials": FEW_TRIALS}, "sampler_a.noise_sigma"),
    ("null-check", {"model": {"kind": "random", "n_visible": 16, "n_hidden": 8,
                              "sigma": float("-inf")}, "trials": FEW_TRIALS}, "model.sigma"),
    ("null-check", {"model": {"kind": "random", "n_visible": 16, "n_hidden": 8,
                              "sigma": 10 ** 400}, "trials": FEW_TRIALS}, "model.sigma"),
    # the reports are ASCII, so such a label used to fail only once the sweep had run
    ("sweep-params", {"sweep": {"configs": [{"label": "a", **G4}, {"label": "G1-\u00e9", **G4}]},
                      "trials": FEW_TRIALS}, "sweep.configs[1].label must be an ASCII string"),
])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, sections, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sections))
    rc = main([command, "--seed", "1", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    [err] = stderr_events(capsys)  # before the start event
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(field)


def without(section, key):
    return {k: v for k, v in section.items() if k != key}


@pytest.mark.parametrize("command, sections, field", [
    ("null-check", {"model": {"kind": "random", "n_visible": 20, "n_hidden": 8}},
     "model.sigma"),
    ("null-check", {"model": {"kind": "file"}}, "model.path"),
    ("train", {"model": {"kind": "train", "epochs": 2}}, "model.n_hidden"),
    ("train", {"data": {"kind": "synth", "dataset": "bars", "r": 8, "count": 64}},
     "data.noise"),
    ("train", {"data": {"kind": "idx", "threshold": 0.5}}, "data.path"),
    ("null-check", {"sampler_a": {"kind": "digital", **without(G4, "threshold")}},
     "sampler_a.threshold"),
    ("sweep-leak", {"sampler_b": {"kind": "digital", **without(G4, "scale")}},
     "sampler_b.scale"),
    ("null-check", {"sampler_a": {"kind": "bernoulli", "rate": 0.5}}, "sampler_a.n_bits"),
    ("sweep-params", {"sweep": {"configs": [{"label": "a", **G4}, G4]}},
     "sweep.configs[1].label"),
    ("sweep-params", {"sweep": {"configs": [{"label": "a", **without(G4, "window")}]}},
     "sweep.configs[0].window"),
])
def test_missing_required_config_field_exits_2(tmp_path, capsys, command, sections, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sections))
    rc = main([command, "--seed", "1", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = stderr_events(capsys)[-1]
    assert err["error"] == "ConfigError"
    assert err["message"] == f"{field} is required"


# Off-default values for every field of the dataclasses that config sections
# build. The chain section takes ChainSettings less n_samples, which is
# trials.n_per_trial.
DIGITAL = {"window": 3, "threshold": -5, "threshold_bits": 7, "leak": 20, "scale": 30.5,
           "leak_density": 2}
ANALOG = {"capacitance": 2.0, "g_leak": 0.5, "threshold": 0.7, "v_reset": 0.1,
          "noise_sigma": 1.2, "dt": 0.05, "window": 10, "noise_density": 2}
TRAIN = {"epochs": 3, "learning_rate": 0.05, "batch_size": 16, "init_sigma": 0.02}
ENERGY = {"e_active": 2.0, "e_core_static": 5.0, "core_size": 128}
CHAIN = {"burn_in": 7, "thin": 3}
DIGITAL_REQUIRED = {"window", "threshold", "threshold_bits", "leak", "scale"}


def sampler_a_cfg(args, kwargs):
    return args[0].sampler_a.kernel.cfg


# (where, a section setting every key it accepts, its required keys, and how
# the command that builds its dataclass hands it on: command, the cli name it
# calls with the object, how to pick the object from that call, the object)
SCHEMA = [
    ("model", {"kind": "random", "n_visible": 6, "n_hidden": 3, "sigma": 0.2},
     {"n_visible", "n_hidden", "sigma"}, None),
    ("model", {"kind": "file", "path": "m.txt"}, {"path"}, None),
    ("model", {"kind": "train", "n_hidden": 5, **TRAIN}, {"n_hidden"},
     ("train", "cd1_train", lambda args, kwargs: args[2:4], (5, TrainConfig(**TRAIN)))),
    ("data", {"kind": "synth", "dataset": "bars", "r": 8, "count": 64, "noise": 0.2},
     {"dataset", "r", "count", "noise"}, None),
    ("data", {"kind": "idx", "path": "d.idx", "threshold": 0.4}, {"path"}, None),
    ("chain", CHAIN, set(),
     ("sweep-params", "parameter_sweep", lambda args, kwargs: args[2],
      ChainSettings(n_samples=10, **CHAIN))),
    ("sampler_a", {"kind": "ideal"}, set(), None),
    ("sampler_a", {"kind": "digital", **DIGITAL, "random_groups": True}, DIGITAL_REQUIRED,
     ("null-check", "run_trials", sampler_a_cfg,
      DigitalSamplerConfig(**DIGITAL, random_groups=True))),
    ("sampler_a", {"kind": "analog", **ANALOG}, set(),
     ("null-check", "run_trials", sampler_a_cfg, AnalogConfig(**ANALOG))),
    ("sampler_a", {"kind": "bernoulli", "rate": 0.3, "n_bits": 5}, {"rate", "n_bits"}, None),
    ("sampler_b", {"kind": "ideal"}, set(), None),
    ("sampler_b", {"kind": "digital", **DIGITAL, "random_groups": True}, DIGITAL_REQUIRED,
     ("sweep-leak", "leak_density_sweep", lambda args, kwargs: args[1],
      DigitalSamplerConfig(**DIGITAL, random_groups=True))),
    ("sampler_b", {"kind": "analog", **ANALOG}, set(), None),
    ("sampler_b", {"kind": "bernoulli", "rate": 0.3, "n_bits": 5}, {"rate", "n_bits"}, None),
    ("trials", {"num_trials": 3, "n_per_trial": 6}, set(), None),
    ("energy", ENERGY, set(),
     ("sweep-params", "parameter_sweep", lambda args, kwargs: kwargs["energy_model"],
      EnergyModel(**ENERGY))),
    ("sweep", {"configs": [], "densities": [1, 3]}, set(), None),
    ("sweep.configs[0]", {"label": "x", **DIGITAL}, {"label"} | DIGITAL_REQUIRED,
     ("sweep-params", "parameter_sweep", lambda args, kwargs: args[1],
      [("x", DigitalSamplerConfig(**DIGITAL))])),
]


class Built(Exception):
    """Stops a command at the call that receives what its config built."""


def sections_with(where, section):
    if where == "sweep.configs[0]":
        return {"sweep": {"configs": [section]}}
    return {where: section}


@pytest.mark.parametrize("where, section, required, built", SCHEMA,
                         ids=[f"{w}-{s['kind']}" if "kind" in s else w for w, s, *_ in SCHEMA])
def test_config_schema_is_pinned(tmp_path, monkeypatch, where, section, required, built):
    # every accepted key at once, and only the required ones, validate
    validate_run_config(sections_with(where, section))
    minimal = {k: v for k, v in section.items() if k in required or k == "kind"}
    validate_run_config(sections_with(where, minimal))
    for key in required:
        with pytest.raises(ConfigError) as exc:
            validate_run_config(sections_with(where, without(section, key)))
        assert str(exc.value) == f"{where}.{key} is required"
    if built is None:
        return
    # the command builds the same object as the dataclass given those values
    command, name, pick, expected = built

    def stop(*args, **kwargs):
        raise Built(pick(args, kwargs))

    monkeypatch.setattr(cli, name, stop)
    cfg = write_cfg(tmp_path, **sections_with(where, section))
    with pytest.raises(Built) as exc:
        main([command, "--seed", "1", "--config", cfg, "--out", str(tmp_path / "o")])
    assert exc.value.args[0] == expected


def test_chain_init_is_an_unknown_key(tmp_path, capsys, monkeypatch):
    # every chain starts random-uniform; the key fails before any model is trained
    def trained(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr(cli, "cd1_train", trained)
    cfg = write_cfg(tmp_path, chain={"burn_in": 7, "init": "random-uniform"},
                    model={"kind": "train", "n_hidden": 4})
    assert main(["null-check", "--seed", "1", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert stderr_events(capsys)[-1] == {"error": "ConfigError",
                                         "message": "unknown key(s) ['init'] in chain"}


def test_numbers_accepted_where_reals_are_expected():
    validate_run_config({"energy": {"e_active": 2, "e_core_static": 0.5},
                         "sampler_a": {"kind": "bernoulli", "rate": 1, "n_bits": 3},
                         "sweep": {"densities": [], "configs": []}})


def test_missing_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["null-check"])
    assert exc.value.code == 2


def test_missing_sample_file_exits_2(tmp_path, capsys):
    rc = main(["test", str(tmp_path / "nope.txt"), str(tmp_path / "nope2.txt"),
               "--seed", "0"])
    assert rc == 2
    assert stderr_events(capsys)[-1]["error"] in ("FileNotFoundError", "OSError")


def test_bad_model_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "m.txt"
    bad.write_text("GMRBM1 2\n")
    cfg = write_cfg(tmp_path, model={"kind": "file", "path": str(bad)})
    rc = main(["sample", "--seed", "1", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert stderr_events(capsys)[-1]["error"] == "ModelFormatError"


META = {"sampler_id": "x", "seed": 0,
        "settings": {"n_samples": 2, "burn_in": 0, "thin": 1, "init": "random-uniform"}}


def dump_with(tmp_path, header, meta=META, rows="0101\n1100\n"):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n{json.dumps(meta)}\n{rows}")
    return str(path)


def format_error_message(capsys, argv) -> str:
    assert main(argv) == 2
    err = stderr_events(capsys)[-1]
    assert err["error"] == "ModelFormatError"
    assert "at byte" in err["message"]
    return err["message"]


@pytest.mark.parametrize("header", [
    "GMSAMP1 1000000000000 784",   # would need a 713 TiB array
    "GMSAMP1 two 4",
    "GMSAMP1 0 4",
])
def test_malformed_sample_header_exits_2(tmp_path, capsys, header):
    bad = dump_with(tmp_path, header)
    format_error_message(capsys, ["test", bad, bad, "--seed", "0"])


@pytest.mark.parametrize("key", ["sampler_id", "seed", "settings"])
def test_sample_metadata_missing_key_exits_2(tmp_path, capsys, key):
    meta = {k: v for k, v in META.items() if k != key}
    bad = dump_with(tmp_path, "GMSAMP1 2 4", meta=meta)
    assert key in format_error_message(capsys, ["test", bad, bad, "--seed", "0"])


@pytest.mark.parametrize("e_active", [1e308, 10 ** 308], ids=["real", "integer"])
@pytest.mark.parametrize("command", ["sweep-params", "sweep-leak"])
def test_energy_overflow_exits_2(tmp_path, capsys, command, e_active):
    # finite coefficients, real or integer, whose product passes the largest double
    cfg = write_cfg(tmp_path, energy={"e_active": e_active}, trials=FEW_TRIALS,
                    sweep={"densities": [1, 4]})
    out = tmp_path / "o"
    assert main([command, "--seed", "1", "--config", cfg, "--out", str(out)]) == 2
    err = stderr_events(capsys)[-1]
    assert err["error"] == "ValueError" and "overflows" in err["message"]
    assert not list(out.glob("*.csv"))


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    good = dump_with(tmp_path, "GMSAMP1 2 4")

    def exhausted(*args, **kwargs):
        raise MemoryError("distance matrix too large")

    monkeypatch.setattr(crossmatch, "pairwise_distances", exhausted)
    assert main(["test", good, good, "--seed", "0"]) == 2
    assert stderr_events(capsys)[-1] == {"error": "MemoryError",
                                         "message": "distance matrix too large"}


def test_solver_error_exits_2(tmp_path, capsys, monkeypatch):
    good = dump_with(tmp_path, "GMSAMP1 2 4")

    def failed(*args, **kwargs):
        raise RuntimeError("matching LP failed: Unknown")

    monkeypatch.setattr(crossmatch, "optimal_matching", failed)
    assert main(["test", good, good, "--seed", "0"]) == 2
    assert stderr_events(capsys)[-1] == {"error": "RuntimeError",
                                         "message": "matching LP failed: Unknown"}
