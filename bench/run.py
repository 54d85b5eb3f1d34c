"""gibbsmatch benchmark: one workload, timed or traced, with its outputs checked.

    python3 bench/run.py --workload {null-desk,sweep-paper,dump-test}
                         --seed N --seconds T --trace {0,1}

Run from the repository root. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from spans import layer_metrics, load_spans
from workloads import (BURN_IN, DUMP_SAMPLES, N_PER_TRIAL, NULL_TRIALS, PAPER_MODEL,
                       SWEEP_TRIALS, THIN, WORKLOADS, derive_seed, write_configs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0            # the whole run, probes and checks included
NX_SUBSET = {"null-desk": 2, "sweep-paper": 1}
NX_DUMP_SHARE = 1 / 3         # share of dump-test runs whose 400-point matching networkx re-solves
# One BLAS thread; HiGHS runs its MILP on one thread here as well (see README).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(mode: str, args, out: Path, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    return subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(timeout, 1.0))


def setup_seconds(args, out: Path, deadline: float) -> list[float]:
    """Start-up to the first chain step, measured from outside the process."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = _worker("probe", args, out, deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        line = [ln for ln in proc.stdout.splitlines() if ln.startswith("setup-done ")][-1]
        times.append(float(line.split()[1]) - t0)
    return times


# --- checks ------------------------------------------------------------------------

def _ok(cmd: dict) -> bool:
    return cmd["code"] == 0 and cmd["error"] is None


def check_round(wl_name: str, rec: dict, insts: list) -> list[str]:
    """Outputs of one round against the Crossmatch instances its commands ran."""
    rdir = Path(rec["dir"])
    errors = []
    if wl_name == "null-desk":
        if len(insts) != NULL_TRIALS:
            return [f"{rec['tag']}: {len(insts)} trials ran, expected {NULL_TRIALS}"]
        summary = json.loads((rdir / "null" / "null_check.json").read_text())
        hist = (rdir / "null" / "null_check.csv").read_text()
        errors += checks.check_null_outputs(summary, hist, [i["p_value"] for i in insts])
    elif wl_name == "sweep-paper":
        want = len(checks.PRESET_WINDOWS) * SWEEP_TRIALS
        if len(insts) != want:
            return [f"{rec['tag']}: {len(insts)} trials ran, expected {want}"]
        p = [i["p_value"] for i in insts]
        means = [math.fsum(p[c:c + SWEEP_TRIALS]) / SWEEP_TRIALS
                 for c in range(0, want, SWEEP_TRIALS)]
        rows = checks.parse_sweep_csv((rdir / "sweep" / "sweep_params.csv").read_text())
        errors += checks.check_sweep_rows(
            rows, means, n_units=PAPER_MODEL["n_visible"] + PAPER_MODEL["n_hidden"],
            burn_in=BURN_IN, thin=THIN, n_per_trial=N_PER_TRIAL)
        if not (rdir / "sweep" / "epeff_bars.svg").read_text().startswith("<svg"):
            errors.append("epeff_bars.svg is not an SVG document")
    else:  # dump-test
        if len(insts) != 1:
            return [f"{rec['tag']}: {len(insts)} Crossmatch tests ran, expected 1"]
        argv = rec["commands"][0]["argv"]
        seed = int(argv[argv.index("--seed") + 1])
        bits = {}
        for side, prefix in (("ideal", "ideal"), ("analog", "analog(")):
            data = (rdir / side / "samples.txt").read_bytes()
            bad = checks.check_dump(data, n=DUMP_SAMPLES, r=PAPER_MODEL["n_visible"], seed=seed,
                                    sampler_prefix=prefix, burn_in=BURN_IN, thin=THIN)
            errors += [f"{side} dump: {e}" for e in bad]
            if not bad:
                bits[side] = checks.parse_dump(data)[1]
        inst = insts[0]
        if len(bits) == 2 and not (np.array_equal(inst["x"], bits["ideal"])
                                   and np.array_equal(inst["y"], bits["analog"])):
            errors.append("the test command did not read back the bits the dumps hold")
        outcome = json.loads((rdir / "test" / "outcome.json").read_text())
        stated = {k: outcome.get(k) for k in ("n", "a_obs", "p_value", "method")}
        ran = {k: inst[k] for k in ("n", "a_obs", "p_value", "method")}
        if stated != ran:
            errors.append(f"outcome.json {stated} != the test that ran {ran}")
        errors += checks.check_p_value(outcome["n"], outcome["a_obs"], outcome["p_value"])
    return [f"{rec['tag']}: {e}" for e in errors]


def check_instance(inst: dict) -> list[str]:
    d = checks.hamming_matrix(inst["x"], inst["y"])
    errors = checks.check_matching(d, inst["pairs"], inst["total_cost"], inst["a_obs"])
    errors += checks.check_p_value(inst["n"], inst["a_obs"], inst["p_value"])
    if inst["method"] != "optimal":
        errors.append(f"pooled size {d.shape[0]} was matched by {inst['method']!r}, "
                      "so its closed-form p-value is not exact")
    return [f"{inst['tag']}: {e}" for e in errors]


def check_repeats(res: dict) -> list[str]:
    """Each round wrote the same bytes and printed the same lines as the first
    round of the run on the same inputs."""
    first = {}
    errors = []
    for rec in res["rounds"]:
        if not all(_ok(c) for c in rec["commands"]):
            continue
        ref = first.setdefault(rec["inputs"], rec)
        if ref is rec:
            continue
        errors += checks.compare_trees(ref["dir"], rec["dir"])
        for a, b in zip(ref["commands"], rec["commands"]):
            if a["stdout"].replace(ref["dir"], "") != b["stdout"].replace(rec["dir"], ""):
                errors.append(f"{a['label']} printed differently in {ref['tag']} and {rec['tag']}")
    return errors


def load_instances(out: Path) -> list[dict]:
    meta = json.loads((out / "instances.json").read_text())
    arrays = np.load(out / "instances.npz")
    return [dict(m, x=arrays[f"x{i}"], y=arrays[f"y{i}"]) for i, m in enumerate(meta)]


def verify(args, res: dict, insts: list) -> tuple[list[str], int]:
    errors = []
    good = [r for r in res["rounds"] if all(_ok(c) for c in r["commands"])]
    for rec in good:
        errors += check_round(args.workload, rec, [i for i in insts if i["tag"] == rec["tag"]])
    for inst in insts:
        errors += check_instance(inst)
    rng = random.Random(derive_seed(args.seed, "networkx"))
    if args.workload == "dump-test":
        subset = insts[:1] if rng.random() < NX_DUMP_SHARE else []
    else:
        subset = rng.sample(insts, min(NX_SUBSET[args.workload], len(insts)))
    for inst in subset:
        errors += [f"{inst['tag']}: {e}" for e in
                   checks.check_minimum(checks.hamming_matrix(inst["x"], inst["y"]),
                                        inst["total_cost"])]
    if args.workload == "null-desk":
        timed = {r["tag"] for r in good if r["tag"].startswith(res["timed_phase"])}
        errors += checks.check_calibration([i["p_value"] for i in insts if i["tag"] in timed],
                                           N_PER_TRIAL)
    errors += check_repeats(res)
    nproc = len(os.sched_getaffinity(0))
    if res["max_threads"] > nproc:
        errors.append(f"the workload process ran {res['max_threads']} threads on {nproc} CPUs")
    if not good:
        errors.append("no round completed without a failed command")
    return errors, len(subset)


# --- metrics --------------------------------------------------------------------------

def stage_seconds(rounds: list, label: str, hook: str) -> float:
    """Median over rounds of a stage's wall time: its commands where a round has
    commands of that label (dump-test), else the time the round's commands
    spent in the stage's entry point (run_chains for sampling, crossmatch_test
    for testing)."""
    per_round = []
    for r in rounds:
        cmds = [c["seconds"] for c in r["commands"] if c["label"] == label]
        per_round.append(sum(cmds) if cmds else r[hook])
    return statistics.median(per_round)


def end_to_end(res: dict, setups: list, n_trials: int) -> dict:
    timed = [r for r in res["rounds"] if r["tag"].startswith("timed")]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "trials_per_s": {"value": n_trials / res["elapsed"], "unit": "1/s"},
        "sample_s": {"value": stage_seconds(timed, "sample", "chain_s"), "unit": "s"},
        "test_s": {"value": stage_seconds(timed, "test", "test_s"), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(res: dict, out: Path) -> tuple[dict, dict]:
    traced = [r for r in res["rounds"] if r["tag"].startswith("traced")]
    metrics, notes = layer_metrics(load_spans(out / "trace.jsonl"), len(traced))
    untraced = next(r for r in res["rounds"] if r["tag"] == "untraced-r0")
    metrics["trace.overhead_s"] = {"value": traced[0]["seconds"] - untraced["seconds"],
                                   "unit": "s"}
    notes["overhead_share"] = metrics["trace.overhead_s"]["value"] / untraced["seconds"]
    round_s = sum(r["seconds"] for r in traced) / len(traced)
    notes["round_s"] = round_s
    notes["shares"] = {name: m["value"] / round_s for name, m in metrics.items()
                       if m["unit"] == "s" and name != "trace.overhead_s"}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "gibbsmatch" / "cli.py").is_file():
        print(f"error: no gibbsmatch sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    out = BENCH / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    write_configs(WORKLOADS[args.workload], out / "configs")
    try:
        setups = [] if args.trace else setup_seconds(args, out, deadline)
        proc = _worker("run", args, out, deadline - time.monotonic() - 10.0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: the worker exited with {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    res = json.loads((out / "result.json").read_text())
    insts = load_instances(out)
    errors, nx_checked = verify(args, res, insts)
    cmds = [c for r in res["rounds"] for c in r["commands"]]
    failed = [c for c in cmds if not _ok(c)]
    for c in failed:
        print(f"failed: {' '.join(c['argv'])}\n{c['error'] or c['stderr']}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    timed_tags = {r["tag"] for r in res["rounds"] if r["tag"].startswith(res["timed_phase"])}
    n_trials = sum(1 for i in insts if i["tag"] in timed_tags)
    print(f"workload {args.workload}, seed {args.seed}: {len(timed_tags)} "
          f"{res['timed_phase']} rounds, {n_trials} Crossmatch trials in "
          f"{res['elapsed']:.2f} s; {len(cmds)} commands, {len(failed)} failed; "
          f"{len(errors)} check failures; networkx re-solved {nx_checked} matchings; "
          f"max threads {res['max_threads']}")
    if args.trace:
        metrics, notes = per_layer(res, out)
        print(f"traced round {notes['round_s']:.3f} s; tracing overhead "
              f"{100 * notes['overhead_share']:+.2f} % of the untraced round 0; "
              f"optimal_matching tail = p{notes['tail_percentile']:g} of "
              f"{notes['optimal_matching_samples']} matchings")
        for name, share in sorted(notes["shares"].items(), key=lambda kv: -kv[1]):
            if share >= 0.005:
                print(f"  {name:36s} {100 * share:6.1f} % of a traced round")
    else:
        metrics = end_to_end(res, setups, n_trials)
        print("setup probes: " + " ".join(f"{s:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(cmds), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
