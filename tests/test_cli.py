"""Command-line behavior, run configs, and emitted artifacts.

Everything runs in-process through main(argv) so coverage and tracebacks
stay useful; the acceptance suite separately exercises the real interpreter
entry point.
"""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gibbsmatch import crossmatch
from gibbsmatch.cli import ConfigError, load_run_config, main, validate_run_config
from gibbsmatch.formats import load_samples
from gibbsmatch.reports import parse_sweep_csv


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


@pytest.mark.parametrize("matching", ["auto", "optimal"])
def test_retired_matching_key_has_no_effect(tmp_path, matching):
    def null_check(name, **trials):
        cfg = write_cfg(tmp_path, name=f"{name}.json",
                        trials={"num_trials": 3, "n_per_trial": 8, **trials})
        out = tmp_path / name
        assert main(["null-check", "--seed", "4", "--config", cfg, "--out", str(out)]) == 0
        return [(out / f).read_bytes() for f in ("null_check.json", "null_check.csv")]

    assert null_check(matching, matching=matching) == null_check("without")


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
    # the retired key takes no value that would select another matcher
    ("null-check", {"trials": {"matching": "greedy"}}, "trials.matching"),
])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, sections, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sections))
    rc = main([command, "--seed", "1", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = stderr_events(capsys)[-1]
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(field)


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


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    good = dump_with(tmp_path, "GMSAMP1 2 4")

    def exhausted(*args, **kwargs):
        raise MemoryError("distance matrix too large")

    monkeypatch.setattr(crossmatch, "pairwise_distances", exhausted)
    assert main(["test", good, good, "--seed", "0"]) == 2
    assert stderr_events(capsys)[-1] == {"error": "MemoryError",
                                         "message": "distance matrix too large"}
