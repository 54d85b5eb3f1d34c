"""The benchmark's workloads: the gibbsmatch commands that one round runs.

A run repeats rounds in a closed loop: each command ends before the next one
starts. Every input is derived from the benchmark's --seed; the program sees
only the command lines and config files built here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# 784 x 500 random RBM: the paper's image scale, at the acceptance suite's sigma.
PAPER_MODEL = {"kind": "random", "n_visible": 784, "n_hidden": 500, "sigma": 0.01}
BURN_IN, THIN = 1000, 10           # the CLI's default chain settings
NULL_TRIALS = 4                    # trials per null-check command
SWEEP_TRIALS = 1                   # trials per sweep config (= chain batch width)
N_PER_TRIAL = 50
DUMP_SAMPLES = 200                 # per dump; `test` then matches 400 pooled points


def derive_seed(seed: int, *path) -> int:
    """A 32-bit seed for the input addressed by (seed, *path)."""
    digest = hashlib.sha256(repr((seed, *path)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    # Where a round's inputs come from: "round" draws fresh inputs from
    # (seed, k) for round k; "run" repeats round 0's inputs in every round;
    # "fixed" also ignores the seed. Rounds on the same inputs must write the
    # same bytes.
    inputs: str
    configs: dict            # config file name -> JSON document, written once per run
    commands: Callable       # (round seed, round dir, config dir) -> [(label, argv)]

    def inputs_id(self, k: int) -> int:
        return k if self.inputs == "round" else 0


def _null_desk(seed: int, out: Path, cfg: Path) -> list:
    return [("null-check", ["null-check", "--seed", str(seed), "--trials", str(NULL_TRIALS),
                            "--out", str(out / "null")])]


def _sweep_paper(seed: int, out: Path, cfg: Path) -> list:
    return [("sweep-params", ["sweep-params", "--seed", str(seed),
                              "--config", str(cfg / "paper.json"),
                              "--trials", str(SWEEP_TRIALS), "--n-per-trial", str(N_PER_TRIAL),
                              "--out", str(out / "sweep")])]


def _dump_test(seed: int, out: Path, cfg: Path) -> list:
    sample = ["--seed", str(seed), "--n-per-trial", str(DUMP_SAMPLES)]
    return [
        ("sample", ["sample", *sample, "--config", str(cfg / "ideal.json"),
                    "--out", str(out / "ideal")]),
        ("sample", ["sample", *sample, "--config", str(cfg / "analog.json"),
                    "--out", str(out / "analog")]),
        ("test", ["test", str(out / "ideal" / "samples.txt"),
                  str(out / "analog" / "samples.txt"),
                  "--seed", str(derive_seed(seed, "tie")), "--out", str(out / "test")]),
    ]


WORKLOADS = {
    "null-desk": Workload("null-desk", "round", {}, _null_desk),
    "sweep-paper": Workload("sweep-paper", "run",
                            {"paper.json": {"model": PAPER_MODEL}}, _sweep_paper),
    # One exact matching at pooled size 400 takes 3.3 s and 210 MB, or 4.6 s
    # and 325 MB, depending on the instance: changing only the tie-break seed
    # switches between the two. With one instance per round, seeded inputs
    # would make test_s and peak_rss_mb differ by ~40 % from seed to seed.
    "dump-test": Workload("dump-test", "fixed", {
        "ideal.json": {"model": PAPER_MODEL, "sampler_a": {"kind": "ideal"}},
        "analog.json": {"model": PAPER_MODEL, "sampler_a": {"kind": "analog"}},
    }, _dump_test),
}


def write_configs(workload: Workload, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for name, doc in workload.configs.items():
        (cfg_dir / name).write_text(json.dumps(doc, indent=2) + "\n")


def round_commands(workload: Workload, seed: int, k: int, out: Path, cfg_dir: Path) -> list:
    base = 0 if workload.inputs == "fixed" else seed
    return workload.commands(derive_seed(base, workload.name, workload.inputs_id(k)), out, cfg_dir)
