"""Acceptance gate: the eleven shipping criteria, one test each.

Every test prints a single [PASS]/[FAIL] line with the measured quantities
and enforces its stated runtime budget. Statistical criteria run at frozen
seeds so the whole gate is deterministic.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gibbsmatch
from gibbsmatch.chains import BernoulliKernel, IdealKernel, run_chains
from gibbsmatch.cli import validate_run_config
from gibbsmatch.crossmatch import DistanceMatrix, null_pmf, optimal_matching
from gibbsmatch.harness import SamplerSpec, TrialPlan, leak_density_sweep, run_trials
from gibbsmatch.neuro import (PRESET_CONFIGS, DigitalKernel, DigitalSamplerConfig,
                              digital_spike_prob_exact, resource_estimate)
from gibbsmatch.rbm import ChainSettings, exact_visible_marginal, random_model
from gibbsmatch.reports import sweep_csv
from gibbsmatch.rng import derive_rng
from oracles import digital_neuron_sample, parse_sweep_csv, state_index

DESK_MODEL = random_model(16, 8, 0.4, seed=2024)
DESK_SETTINGS = ChainSettings(n_samples=50, burn_in=1000, thin=10)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def all_perfect_matchings(indices):
    if not indices:
        yield []
        return
    first = indices[0]
    for k in range(1, len(indices)):
        rest = indices[1:k] + indices[k + 1:]
        for tail in all_perfect_matchings(rest):
            yield [(first, indices[k])] + tail


def test_criterion_01_null_pmf_exact():
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3, 4):
        counts = np.zeros(n + 1)
        total = 0
        for m in all_perfect_matchings(list(range(2 * n))):
            a = sum(1 for i, j in m if (i < n) != (j < n))
            counts[a] += 1
            total += 1
        worst = max(worst, np.abs(null_pmf(n) - counts / total).max())
    dt = time.monotonic() - t0
    report(1, worst < 1e-12 and dt < 1.0,
           f"max |pmf - enumeration| = {worst:.2e} < 1e-12 over n=1..4, {dt:.2f}s < 1s")


def test_criterion_02_normalization_to_1000():
    t0 = time.monotonic()
    worst = max(abs(null_pmf(n).sum() - 1.0) for n in range(1, 1001))
    dt = time.monotonic() - t0
    report(2, worst <= 1e-9 and dt < 5.0,
           f"max |sum f - 1| = {worst:.2e} <= 1e-9 for n=1..1000, {dt:.2f}s < 5s")


def test_criterion_03_matching_optimality():
    t0 = time.monotonic()
    matchings = list(all_perfect_matchings(list(range(10))))
    failures = 0
    for k in range(200):
        rng = derive_rng(4000, k)
        upper = rng.integers(0, 21, size=(10, 10))
        d = np.triu(upper, 1)
        d = d + d.T
        D = DistanceMatrix(entries=d, n=5)
        best = min(sum(int(d[i, j]) for i, j in m) for m in matchings)
        if optimal_matching(D, tie_seed=k).total_cost != best:
            failures += 1
    dt = time.monotonic() - t0
    report(3, failures == 0 and dt < 10.0,
           f"{200 - failures}/200 random 2n=10 instances at the brute-force "
           f"minimum, {dt:.1f}s < 10s")


def test_criterion_04_null_calibration():
    t0 = time.monotonic()
    spec = SamplerSpec(IdealKernel(DESK_MODEL), DESK_SETTINGS)
    plan = TrialPlan(sampler_a=spec, sampler_b=spec, num_trials=2000, base_seed=42)
    stats = run_trials(plan)
    dt = time.monotonic() - t0
    ok = 0.45 <= stats.mean_p <= 0.60 and stats.d_plus <= 0.05 and dt < 300.0
    report(4, ok,
           f"self-vs-self over 2000 trials: mean_p={stats.mean_p:.4f} in "
           f"[0.45,0.60], d_plus={stats.d_plus:.4f} <= 0.05, {dt:.0f}s < 300s")


def test_criterion_05_power_on_separated_sources():
    t0 = time.monotonic()
    plan = TrialPlan(sampler_a=SamplerSpec(BernoulliKernel(0.2, 16), BernoulliKernel.schedule(50)),
                     sampler_b=SamplerSpec(BernoulliKernel(0.8, 16), BernoulliKernel.schedule(50)),
                     num_trials=200, base_seed=43)
    stats = run_trials(plan)
    dt = time.monotonic() - t0
    report(5, stats.mean_p < 0.01 and dt < 60.0,
           f"Bernoulli(0.2)^16 vs (0.8)^16: mean_p={stats.mean_p:.2e} < 0.01, "
           f"{dt:.0f}s < 60s")


def test_criterion_06_ideal_sampler_hits_exact_marginal():
    t0 = time.monotonic()
    model = random_model(4, 3, 0.5, seed=606)
    settings = ChainSettings(n_samples=100_000, burn_in=1000, thin=2)
    samples = run_chains(IdealKernel(model), settings, seed=607, paths=[()])[0]
    counts = np.bincount(state_index(samples), minlength=16)
    tv = 0.5 * np.abs(counts / samples.shape[0] - exact_visible_marginal(model)).sum()
    dt = time.monotonic() - t0
    report(6, tv < 0.02 and dt < 60.0,
           f"TV(empirical, exact) = {tv:.4f} < 0.02 on 1e5 thinned samples, "
           f"{dt:.0f}s < 60s")


def test_criterion_07_digital_neuron_fidelity():
    t0 = time.monotonic()
    grid = np.linspace(-4.0, 4.0, 21)
    worst = 0.0
    worst_at = ""
    for ci, (name, cfg) in enumerate(PRESET_CONFIGS):
        for pi, x in enumerate(grid):
            v0 = cfg.scale * x
            rng = derive_rng(20260814, ci, pi)
            freq = digital_neuron_sample(v0, cfg, rng, size=100_000).mean()
            err = abs(freq - digital_spike_prob_exact(v0, cfg))
            if err > worst:
                worst, worst_at = err, f"{name}@x={x:g}"
    dt = time.monotonic() - t0
    report(7, worst < 0.005 and dt < 120.0,
           f"max |MC(1e5) - exact| = {worst:.4f} < 0.005 (at {worst_at}) over "
           f"7 configs x 21 inputs, {dt:.0f}s < 120s")


def test_criterion_08_sampler_discrimination():
    t0 = time.monotonic()
    ideal = SamplerSpec(IdealKernel(DESK_MODEL), DESK_SETTINGS)
    good_cfg = dict(PRESET_CONFIGS)["G4"]
    good = run_trials(TrialPlan(
        sampler_a=ideal,
        sampler_b=SamplerSpec(DigitalKernel(DESK_MODEL, good_cfg, 44), DESK_SETTINGS),
        num_trials=200, base_seed=44))
    # single-tick sampler with no stochastic drive and an unreachable threshold
    degenerate_cfg = DigitalSamplerConfig(window=1, threshold=10_000, threshold_bits=8,
                                          leak=0, scale=50)
    degenerate = run_trials(TrialPlan(
        sampler_a=ideal,
        sampler_b=SamplerSpec(DigitalKernel(DESK_MODEL, degenerate_cfg, 44), DESK_SETTINGS),
        num_trials=200, base_seed=44))
    dt = time.monotonic() - t0
    ok = good.mean_p > 0.2 and degenerate.mean_p < 0.01
    report(8, ok,
           f"calibrated config mean_p={good.mean_p:.4f} > 0.2; degenerate config "
           f"mean_p={degenerate.mean_p:.2e} < 0.01 under identical plans, {dt:.0f}s")


def test_criterion_09_leak_density_trend(tmp_path):
    t0 = time.monotonic()
    cfg = dict(PRESET_CONFIGS)["G2"]
    densities = [1, 10, 16]  # dedicated, shared, full-layer
    reports = leak_density_sweep(DESK_MODEL, cfg, densities, DESK_SETTINGS,
                                 num_trials=200, base_seed=77)
    mean_ps = [r.mean_p for r in reports]
    energies = [r.energy for r in reports]
    epeffs = [r.epeff for r in reports]
    non_increasing = all(mean_ps[i + 1] <= mean_ps[i] + 0.05 for i in range(2))
    energy_decreasing = energies[0] > energies[1] > energies[2]

    curve = tmp_path / "epeff_curve.csv"
    curve.write_text(sweep_csv(reports))
    rows = parse_sweep_csv(curve.read_text())
    emitted = [r["label"] for r in rows] == ["ld=1", "ld=10", "ld=16"]
    peak = int(np.argmax(epeffs))
    interior_max = 0 < peak < len(epeffs) - 1
    dt = time.monotonic() - t0
    ok = non_increasing and energy_decreasing and emitted and interior_max
    report(9, ok,
           f"mean_p={['%.3f' % p for p in mean_ps]} non-increasing(+0.05); "
           f"energy={energies} strictly decreasing; EPEff curve emitted with "
           f"interior max at {rows[peak]['label']}, {dt:.0f}s")


def test_criterion_10_resource_accounting():
    r = resource_estimate(256, 1)
    ok = r.cores == 2 and r.utilization == 0.5
    report(10, ok,
           f"resource_estimate(256, 1) -> {r.cores} cores at "
           f"{r.utilization:.0%} utilization (expected 2 at 50%)")


def test_criterion_11_paper_scale_config_starts(tmp_path):
    big = {
        "model": {"kind": "random", "n_visible": 784, "n_hidden": 500, "sigma": 0.01},
        "trials": {"num_trials": 5000, "n_per_trial": 50},
    }
    validate_run_config(big)  # expressible
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(big))

    # The child runs in tmp_path, so a relative PYTHONPATH would not resolve:
    # point it at the source root of the package this test imported.
    src_root = str(Path(gibbsmatch.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_root,
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "gibbsmatch.cli", "null-check",
         "--config", str(cfg_path), "--seed", "1"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        event_line = []
        reader = threading.Thread(target=lambda: event_line.append(proc.stderr.readline()))
        reader.start()
        reader.join(timeout=60)
        started = bool(event_line) and event_line[0].startswith("{")
        event = json.loads(event_line[0]) if started else {}
        time.sleep(6)
        still_running = proc.poll() is None
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    ok = (started and still_running and event.get("event") == "start"
          and event.get("num_trials") == 5000)
    report(11, ok,
           f"784x500 config validated; null-check subprocess announced "
           f"{event} and was still sampling 6s in (not results-gated)")
