"""Golden outputs: every CLI command's files, pinned by sha256.

A small seeded run of every command, covering all four sampler kinds (the
digital one with random leak-group wiring, the analog one with shared
noise). Any refactor of the sampling, trial or reporting layers must leave
these bytes unchanged; a deliberate output change updates the hash here and
says why in CHANGES.md.
"""

import hashlib
import json

from gibbsmatch.cli import main

BASE = {
    "model": {"kind": "random", "n_visible": 8, "n_hidden": 4, "sigma": 0.4},
    "chain": {"burn_in": 60, "thin": 2},
    "trials": {"num_trials": 4, "n_per_trial": 10},
}
DIGITAL = {"kind": "digital", "window": 4, "threshold": 20, "threshold_bits": 8,
           "leak": 30, "scale": 50, "leak_density": 3, "random_groups": True}
SAMPLERS = {
    "ideal": {"kind": "ideal"},
    "digital": DIGITAL,
    "analog": {"kind": "analog", "noise_density": 2},
    "bernoulli": {"kind": "bernoulli", "rate": 0.3, "n_bits": 8},
}

# Taken at the commit before the sampler refactor, except the bernoulli
# sample dump (see CHANGES.md).
GOLDEN = {
    "leak/leak_epeff.svg":
        "7e7559124f11bcae854a632dc3549423f48e90235da818a1e650bd509d1757b8",
    "leak/leak_mean_p.svg":
        "d55d3e02784a585bfb8f19a9ea9c5330653f4d8c8a6e059f8b305ab75530a71b",
    "leak/sweep_leak.csv":
        "971044be6d555457dd093b9df5dda4ce620c2e11ac14430aeb16a00e4104e029",
    "null-analog/null_check.csv":
        "99ed0a65d1311c53f1718eba42c24fe223cf8a2bb15da839753bc4beee4afafd",
    "null-analog/null_check.json":
        "cceb461eac8ac5c70a8e4cbdfd192085c6c1399259e342e62da19806c7a6f9a9",
    "null-bernoulli/null_check.csv":
        "a3e5cc548a560813bf5805e8522758d527b2f536ffa3f8f8926c042172065ade",
    "null-bernoulli/null_check.json":
        "fe84f62756a09b537efff25f7c75d226d601cb2ca266c81fab4821cdc2177afd",
    "null-digital/null_check.csv":
        "b1b5507713109bb70d6eb31b1cd5788741fa94d82dc918df443347c519107ae8",
    "null-digital/null_check.json":
        "f99afcadaee6f9a8e4f0a6e772a37b8b34410ea40d2f9d1fc166d1adac7aaaaf",
    "null-ideal/null_check.csv":
        "984e87b4228db5ac58e39c9f3016b939c7208869cdb90dd80f24bc3341fd8161",
    "null-ideal/null_check.json":
        "6e905cf1803541edc34e71d8014086bb513be4686c7d60e10778f9c25c3e6818",
    "params/epeff_bars.svg":
        "73ce8ac736c1bbab3f163ef55bd24aa784c7cba11ab8e5facf9bc2b62dfcfce8",
    "params/sweep_params.csv":
        "88f3469982a7c0aa06b8d3c6ecdacf6a4db9eab33b7e62a74291ce5bdc2e1e98",
    "sample-analog/samples.txt":
        "101b8412020a0e821772bbd91a521ced6388973545971cb4e1f409bb1fe50178",
    "sample-bernoulli/samples.txt":
        "8412e51858b7c9f21a2cd6c29b4dfbe3091205d2400a09b0d262bbada59fdd39",
    "sample-digital/samples.txt":
        "1be6659060a5c05ff18015f3d05ec97176552651b1fbdacdff664a6a880729ca",
    "sample-ideal/samples.txt":
        "c5c17c25b0faa567b59d65b374d0cbd644f32d05110e70503cb456a4105f5ad3",
    "test/outcome.json":
        "4ca10178143ab5ce6c15a84a99b29273f2cc88543d11f0e42c612703ffb887ef",
    "train/model.txt":
        "8a2d0f89c0bd4bb3f1424284267b464f2c2dc74770fc72d828a4817266dc9055",
}


def _config(tmp_path, name, **sections):
    path = tmp_path / "configs" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**BASE, **sections}))
    return str(path)


def run_golden_set(tmp_path) -> dict:
    """Run the command set under tmp_path; map each output file to its sha256."""
    out = tmp_path / "out"
    argvs = []
    for kind, sampler in SAMPLERS.items():
        cfg = _config(tmp_path, kind, sampler_a=sampler)
        argvs.append(["sample", "--seed", "5", "--config", cfg, "--n-per-trial", "20",
                      "--out", str(out / f"sample-{kind}")])
        argvs.append(["null-check", "--seed", "11", "--config", cfg,
                      "--out", str(out / f"null-{kind}")])
    argvs.append(["sweep-params", "--seed", "21", "--trials", "2", "--n-per-trial", "8",
                  "--config", _config(tmp_path, "params"), "--out", str(out / "params")])
    argvs.append(["sweep-leak", "--seed", "31", "--trials", "2", "--n-per-trial", "8",
                  "--config", _config(tmp_path, "leak", sampler_b=DIGITAL,
                                      sweep={"densities": [1, 3]}),
                  "--out", str(out / "leak")])
    argvs.append(["test", str(out / "sample-ideal" / "samples.txt"),
                  str(out / "sample-digital" / "samples.txt"), "--seed", "0",
                  "--out", str(out / "test")])
    argvs.append(["train", "--seed", "2", "--out", str(out / "train"),
                  "--config", _config(tmp_path, "train", model={
                      "kind": "train", "n_hidden": 4, "epochs": 2},
                      data={"kind": "synth", "dataset": "bars", "r": 8, "count": 64,
                            "noise": 0.1})])
    for argv in argvs:
        assert main(argv) == 0, argv
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_cli_outputs_match_golden_hashes(tmp_path, capsys):
    assert run_golden_set(tmp_path) == GOLDEN
