"""Trial orchestration, p-value aggregation, and the energy/EPEff model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from gibbsmatch import cli, harness
from gibbsmatch.chains import BernoulliKernel, IdealKernel, run_chains
from gibbsmatch.crossmatch import crossmatch_test
from gibbsmatch.harness import (HISTOGRAM_EDGES, EnergyModel, EpeffReport,
                                SamplerSpec, TrialPlan,
                                energy_estimate, epeff, gibbs_ticks,
                                leak_density_sweep, parameter_sweep,
                                pvalue_stats, run_trials, tie_seed_for_trial)
from gibbsmatch.neuro import DigitalKernel, DigitalSamplerConfig, resource_estimate
from gibbsmatch.rbm import ChainSettings, random_model
from gibbsmatch.rng import derive_rng

QUICK = ChainSettings(n_samples=8, burn_in=40, thin=2)


def quick_plan(num_trials=4, **kw):
    model = random_model(6, 3, 0.4, seed=300)
    spec = SamplerSpec(IdealKernel(model), QUICK)
    defaults = dict(sampler_a=spec, sampler_b=spec, num_trials=num_trials, base_seed=1234)
    defaults.update(kw)
    return TrialPlan(**defaults)


# --- p-value aggregation -----------------------------------------------------------

def test_pvalue_stats_point_mass():
    s = pvalue_stats([1.0, 1.0, 1.0])
    assert s.mean_p == 1.0
    assert s.ks_vs_uniform == 1.0  # all mass at the top of the unit interval
    assert s.d_plus == 0.0
    assert s.histogram.sum() == 3
    assert s.histogram[-1] == 3


def test_pvalue_stats_two_points():
    s = pvalue_stats([0.25, 0.75])
    assert s.mean_p == 0.5
    assert s.ks_vs_uniform == pytest.approx(0.25)
    assert s.d_plus == pytest.approx(0.25)


def test_pvalue_stats_uniform_sample():
    p = derive_rng(5).random(10_000)
    p = np.clip(p, 1e-9, 1.0)
    s = pvalue_stats(p)
    assert s.ks_vs_uniform < 0.03
    assert abs(s.mean_p - 0.5) < 0.02
    assert s.histogram.sum() == 10_000
    assert len(s.histogram) == len(HISTOGRAM_EDGES) - 1


def test_pvalue_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        pvalue_stats([])
    with pytest.raises(ValueError):
        pvalue_stats([0.0, 0.5])
    with pytest.raises(ValueError):
        pvalue_stats([0.5, 1.2])


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=50))
@hyp_settings(max_examples=40)
def test_pvalue_stats_invariants(ps):
    s = pvalue_stats(ps)
    assert 0.0 <= s.d_plus <= s.ks_vs_uniform <= 1.0
    assert s.histogram.sum() == len(ps)
    assert 0.0 < s.mean_p <= 1.0


# --- trial composition ----------------------------------------------------------------

def test_single_trial_equals_direct_crossmatch():
    """run_trials is exactly: per-side chains at (seed, trial, side) plus the
    trial's tie seed fed into crossmatch_test."""
    model = random_model(6, 3, 0.4, seed=300)
    plan = quick_plan(num_trials=1)
    stats = run_trials(plan)

    kernel = IdealKernel(model)
    xs = run_chains(kernel, QUICK, plan.base_seed, [(0, 0)])[0]
    ys = run_chains(kernel, QUICK, plan.base_seed, [(0, 1)])[0]
    outcome = crossmatch_test(xs, ys, tie_seed=tie_seed_for_trial(plan.base_seed, 0))
    assert stats.p_values[0] == outcome.p_value


def test_block_size_never_changes_results(monkeypatch):
    plan = quick_plan(num_trials=7)
    monkeypatch.setattr(harness, "_BLOCK_SIZE", 3)
    a = run_trials(plan)
    monkeypatch.setattr(harness, "_BLOCK_SIZE", 64)
    b = run_trials(plan)
    np.testing.assert_array_equal(a.p_values, b.p_values)


def test_null_check_block_is_one_chain_batch_with_the_two_batch_p_values(tmp_path, monkeypatch):
    """null-check draws both sides of a block in one chain batch. On the desk
    model (the CLI's default 16x8) its p-values equal those of each side
    drawn as a batch of its own."""
    kernels, batches, p_values = [], [], []

    def spy_chains(kernel, settings, seed, paths):
        kernels.append(kernel)
        batches.append(list(paths))
        return run_chains(kernel, settings, seed, paths)

    def keep(x, y, **kwargs):
        outcome = crossmatch_test(x, y, **kwargs)
        p_values.append(outcome.p_value)
        return outcome

    monkeypatch.setattr(harness, "run_chains", spy_chains)
    monkeypatch.setattr(harness, "crossmatch_test", keep)
    seed, num_trials = 5, 3
    assert cli.main(["null-check", "--seed", str(seed), "--trials", str(num_trials),
                     "--out", str(tmp_path)]) == 0
    assert batches == [[(t, 0) for t in range(num_trials)] + [(t, 1) for t in range(num_trials)]]
    # the plain kernel's batch: a stack of two copies of one kernel gives the
    # same bits at a higher cost per step
    assert [type(k) for k in kernels] == [IdealKernel]
    kernel = IdealKernel(random_model(16, 8, 0.4, seed))
    settings = ChainSettings(n_samples=50, burn_in=1000, thin=10)
    xs, ys = (run_chains(kernel, settings, seed, [(t, side) for t in range(num_trials)])
              for side in (0, 1))
    assert p_values == [crossmatch_test(x, y, tie_seed=tie_seed_for_trial(seed, t)).p_value
                        for t, x, y in zip(range(num_trials), xs, ys)]


def test_a_plan_of_two_samplers_draws_each_side_in_a_plain_call_of_its_own(monkeypatch):
    model = random_model(6, 3, 0.4, seed=300)
    ideal, digital = IdealKernel(model), DigitalKernel(model, sweep_cfg(), 1234)
    calls = []

    def spy(kernel, settings, seed, paths):
        calls.append((kernel, list(paths)))
        return run_chains(kernel, settings, seed, paths)

    monkeypatch.setattr(harness, "run_chains", spy)
    run_trials(quick_plan(num_trials=66, sampler_a=SamplerSpec(ideal, QUICK),
                          sampler_b=SamplerSpec(digital, QUICK)))
    assert calls == [(kernel, [(t, side) for t in trials])
                     for trials in (range(0, 64), range(64, 66))
                     for side, kernel in enumerate((ideal, digital))]


def test_extending_trials_keeps_prefix():
    short = run_trials(quick_plan(num_trials=5))
    long = run_trials(quick_plan(num_trials=10))
    np.testing.assert_array_equal(short.p_values, long.p_values[:5])


def test_sides_draw_distinct_streams():
    # self-vs-self must still compare two different sample sets
    stats = run_trials(quick_plan(num_trials=2))
    assert (stats.p_values > 0).all()
    model = random_model(6, 3, 0.4, seed=300)
    a = SamplerSpec(IdealKernel(model), QUICK)
    assert a.kernel.label == "ideal"


def bernoulli_spec(rate, n_bits, n_samples):
    kernel = BernoulliKernel(rate, n_bits)
    return SamplerSpec(kernel, kernel.schedule(n_samples))


def test_bernoulli_source_stream_and_rate(monkeypatch):
    """Side s of trial i is derive_rng(base_seed, i, s, 1).random((n, bits)) < rate."""
    drawn = []

    def keep(x, y, **kwargs):
        drawn.append((x.copy(), y.copy()))
        return crossmatch_test(x, y, **kwargs)

    monkeypatch.setattr(harness, "crossmatch_test", keep)
    spec = bernoulli_spec(0.2, 16, 30)
    plan = quick_plan(sampler_a=spec, sampler_b=spec, num_trials=2)
    run_trials(plan)  # must not touch any model
    assert len(drawn) == 2
    for trial, sides in enumerate(drawn):
        for side, bits in enumerate(sides):
            u = derive_rng(plan.base_seed, trial, side, 1).random((30, 16))
            np.testing.assert_array_equal(bits, (u < 0.2).astype(np.uint8))
    assert 0.1 < drawn[0][0].mean() < 0.3


def test_mismatched_widths_fail():
    plan = quick_plan(sampler_a=bernoulli_spec(0.5, 4, 4), sampler_b=bernoulli_spec(0.5, 5, 4))
    with pytest.raises(ValueError):
        run_trials(plan)


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        quick_plan(sampler_a=bernoulli_spec(0.5, 6, 1), sampler_b=bernoulli_spec(0.5, 6, 1))
    with pytest.raises(ValueError):
        quick_plan(num_trials=0)


def test_trial_plan_sides_draw_the_same_number_of_samples():
    model = random_model(6, 3, 0.4, seed=300)
    with pytest.raises(ValueError, match="same n_samples"):
        quick_plan(sampler_b=SamplerSpec(IdealKernel(model), replace(QUICK, n_samples=9)))


# --- energy and efficiency ---------------------------------------------------------------

def test_energy_estimate_hand_values():
    em = EnergyModel(e_active=1.0, e_core_static=1.0, core_size=256)
    one = resource_estimate(1, 1, core_size=256)  # 2 neurons, 1 core
    assert energy_estimate(one, 1, em) == 3.0
    assert energy_estimate(one, 10, em) == 30.0
    em = EnergyModel()  # defaults: active 1, static 10
    assert energy_estimate(one, 1, em) == 12.0


def test_energy_decreases_with_leak_sharing():
    em = EnergyModel()
    dense = energy_estimate(resource_estimate(256, 1), 100, em)
    shared = energy_estimate(resource_estimate(256, 16), 100, em)
    assert shared < dense


def test_energy_estimate_rejects_zero_ticks():
    with pytest.raises(ValueError):
        energy_estimate(resource_estimate(4, 1), 0, EnergyModel())


def test_energy_estimate_rejects_an_overflow():
    with pytest.raises(ValueError, match="overflows"):
        energy_estimate(resource_estimate(4, 1), 10, EnergyModel(e_active=1e308))


def test_energy_model_validation():
    with pytest.raises(ValueError):
        EnergyModel(e_active=0)
    with pytest.raises(ValueError):
        EnergyModel(e_core_static=-1)
    with pytest.raises(ValueError):
        EnergyModel(core_size=0)


def test_epeff_examples():
    assert epeff(0.5, 100.0) == 0.005
    assert epeff(1.0, 4.0) == 0.25
    with pytest.raises(ValueError):
        epeff(0.5, 0.0)


def test_epeff_report_consistency_enforced():
    r = resource_estimate(4, 1)
    EpeffReport(label="x", mean_p=0.5, energy=10.0, epeff=0.05, resources=r)
    with pytest.raises(ValueError):
        EpeffReport(label="x", mean_p=0.5, energy=10.0, epeff=0.5, resources=r)


def test_epeff_report_rejects_an_infinite_energy():
    # 0.0 * inf is NaN, which no tolerance comparison may let through
    with pytest.raises(ValueError):
        EpeffReport(label="x", mean_p=0.5, energy=float("inf"), epeff=0.0,
                    resources=resource_estimate(4, 1))


def test_gibbs_ticks_formula():
    cs = ChainSettings(n_samples=50, burn_in=100, thin=10)
    assert gibbs_ticks(cs, 8) == (100 + 500) * 2 * 8
    assert gibbs_ticks(cs, 1) == 1200


# --- sweeps -----------------------------------------------------------------------------

def sweep_cfg(**kw):
    base = dict(window=1, threshold=-80, threshold_bits=8, leak=102, scale=50)
    base.update(kw)
    return DigitalSamplerConfig(**base)


def test_parameter_sweep_ordering_and_repeatability():
    model = random_model(6, 3, 0.4, seed=301)
    configs = [("a", sweep_cfg()), ("b", sweep_cfg(threshold=-60)), ("a2", sweep_cfg())]
    reports = parameter_sweep(model, configs, QUICK, num_trials=4, base_seed=55)
    assert [r.epeff for r in reports] == sorted((r.epeff for r in reports), reverse=True)
    by_label = {r.label: r for r in reports}
    # identical configs under one base seed give identical numbers
    assert by_label["a"].mean_p == by_label["a2"].mean_p
    assert by_label["a"].energy == by_label["a2"].energy
    for r in reports:
        assert r.epeff == pytest.approx(r.mean_p / r.energy, rel=1e-12)


def test_parameter_sweep_rejects_empty():
    model = random_model(4, 2, 0.4, seed=0)
    with pytest.raises(ValueError):
        parameter_sweep(model, [], QUICK, base_seed=1)


def test_leak_density_sweep_energy_and_order():
    model = random_model(8, 4, 0.4, seed=302)
    reports = leak_density_sweep(model, sweep_cfg(), [1, 4, 12], QUICK,
                                 num_trials=4, base_seed=66)
    assert [r.label for r in reports] == ["ld=1", "ld=4", "ld=12"]
    energies = [r.energy for r in reports]
    assert energies[0] > energies[1] > energies[2]
    # density 1 halves the core budget between data and leak neurons
    assert reports[0].resources.leak_neurons == 12
    assert reports[2].resources.leak_neurons == 1


def test_leak_density_sweep_rejects_empty():
    model = random_model(4, 2, 0.4, seed=0)
    with pytest.raises(ValueError):
        leak_density_sweep(model, sweep_cfg(), [], QUICK, base_seed=1)


def per_config_reports(model, reference, labeled_configs, settings,
                       num_trials, base_seed, em=EnergyModel()):
    """Reports built by one run_trials per config, each drawing its own side 0."""
    reports = []
    for label, cfg in labeled_configs:
        plan = TrialPlan(sampler_a=reference,
                         sampler_b=SamplerSpec(DigitalKernel(model, cfg, base_seed), settings),
                         num_trials=num_trials, base_seed=base_seed)
        mean_p = run_trials(plan).mean_p
        resources = resource_estimate(model.n_visible + model.n_hidden, cfg.leak_density,
                                      em.core_size)
        energy = energy_estimate(resources, gibbs_ticks(settings, cfg.window), em)
        reports.append(EpeffReport(label=label, mean_p=mean_p, energy=energy,
                                   epeff=epeff(mean_p, energy), resources=resources))
    return reports


def spy_chain_paths(monkeypatch) -> list:
    """Record every (trial, side) path the harness hands to run_chains."""
    paths = []
    real = harness.run_chains

    def spy(kernel, settings, seed, chain_paths):
        paths.extend(chain_paths)
        return real(kernel, settings, seed, chain_paths)

    monkeypatch.setattr(harness, "run_chains", spy)
    return paths


@pytest.mark.parametrize("sweep", ["parameter", "leak_density"])
def test_sweep_samples_reference_side_once(monkeypatch, sweep):
    model = random_model(6, 3, 0.4, seed=303)
    num_trials, base_seed = 66, 77  # two trial blocks, the second short
    settings = replace(QUICK, n_samples=6)
    if sweep == "parameter":
        configs = [("a", sweep_cfg()), ("b", sweep_cfg(threshold=-60)),
                   ("c", sweep_cfg(window=2, threshold=0, leak=40))]
        reference = SamplerSpec(IdealKernel(model), settings)
        expected = sorted(per_config_reports(model, reference, configs, settings,
                                             num_trials, base_seed),
                          key=lambda r: r.epeff, reverse=True)
        run = lambda: parameter_sweep(model, configs, settings,
                                      num_trials=num_trials, base_seed=base_seed)
    else:
        densities = [1, 2, 5]
        configs = [(f"ld={d}", sweep_cfg(leak_density=d)) for d in densities]
        reference = SamplerSpec(DigitalKernel(model, sweep_cfg(), base_seed), settings)
        expected = per_config_reports(model, reference, configs, settings,
                                      num_trials, base_seed)
        run = lambda: leak_density_sweep(model, sweep_cfg(), densities, settings,
                                         num_trials=num_trials, base_seed=base_seed)
    paths = spy_chain_paths(monkeypatch)
    assert run() == expected
    assert [p for p in paths if p[1] == 0] == [(t, 0) for t in range(num_trials)]
    assert sorted(p for p in paths if p[1] == 1) == sorted(
        (t, 1) for t in range(num_trials) for _ in configs)


def spy_chain_calls(monkeypatch) -> list:
    """Record the paths of each run_chains call the harness makes."""
    calls = []
    real = harness.run_chains

    def spy(kernel, settings, seed, paths):
        calls.append(list(paths))
        return real(kernel, settings, seed, paths)

    monkeypatch.setattr(harness, "run_chains", spy)
    return calls


@pytest.mark.parametrize("sweep", ["parameter", "leak_density"])
def test_a_sweep_runs_one_chain_batch_per_trial_block(monkeypatch, sweep):
    model = random_model(6, 3, 0.4, seed=303)
    settings = replace(QUICK, n_samples=6)
    calls = spy_chain_calls(monkeypatch)
    configs = [("a", sweep_cfg()), ("b", sweep_cfg(threshold=-60)), ("a2", sweep_cfg())]
    if sweep == "parameter":
        parameter_sweep(model, configs, settings, num_trials=66, base_seed=77)
    else:
        leak_density_sweep(model, sweep_cfg(), [1, 2, 5], settings, num_trials=66,
                           base_seed=77)
    blocks = [range(0, 64), range(64, 66)]
    assert calls == [[(t, 0) for t in trials] + [(t, 1) for t in trials] * 3
                     for trials in blocks]


def test_tie_seed_is_stable():
    assert tie_seed_for_trial(1234, 0) == tie_seed_for_trial(1234, 0)
    assert tie_seed_for_trial(1234, 0) != tie_seed_for_trial(1234, 1)
    assert 0 <= tie_seed_for_trial(9, 3) < 2**64
