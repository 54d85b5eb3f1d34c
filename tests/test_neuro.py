"""Digital stochastic neurons, analog LIF neurons, and resource accounting.

The dynamic-programming spike probability is pinned three ways: hand values
for the single-iteration no-leak neuron, a closed form for leak-free windows,
and a one-iteration leak mixture for the fastest preset. Monte Carlo runs are
checked against the DP at frozen seeds, through the single-neuron and
single-chain adapters of oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.special import expit

from gibbsmatch.chains import run_chain
from gibbsmatch.neuro import (PRESET_CONFIGS, AnalogConfig, AnalogKernel, DigitalKernel,
                              DigitalSamplerConfig, ResourceEstimate,
                              digital_spike_prob_exact, resource_estimate)
from gibbsmatch.rbm import ChainSettings, RbmModel, random_model
from gibbsmatch.rng import derive_rng
from oracles import (analog_lif_sample, digital_gibbs_step, digital_neuron_sample,
                     record_chain)

PRESETS = dict(PRESET_CONFIGS)


def step_cfg(threshold=0, bits=8):
    # single iteration, no leak: spike prob is a 2^bits-level ramp in v0
    return DigitalSamplerConfig(window=1, threshold=threshold, threshold_bits=bits,
                                leak=0, scale=1)


def zero_model(nv, nh):
    return RbmModel(W=np.zeros((nv, nh)), b_v=np.zeros(nv), b_h=np.zeros(nh))


# --- exact spike probability -----------------------------------------------------

def test_dp_single_step_hand_values():
    cfg = step_cfg()
    assert digital_spike_prob_exact(127, cfg) == 0.5
    assert digital_spike_prob_exact(255, cfg) == 1.0
    assert digital_spike_prob_exact(-1, cfg) == 0.0
    assert digital_spike_prob_exact(0, cfg) == 1 / 256
    assert digital_spike_prob_exact(1000, cfg) == 1.0


@given(st.floats(min_value=-300, max_value=300),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=10),
       st.integers(min_value=-50, max_value=50))
@hyp_settings(max_examples=60)
def test_dp_no_leak_closed_form(v0, window, bits, threshold):
    # without leak each iteration is an independent trial at the same V
    cfg = DigitalSamplerConfig(window=window, threshold=threshold,
                               threshold_bits=bits, leak=0, scale=1)
    m = float(1 << bits)
    p_step = min(max(math.floor(v0 - threshold) + 1.0, 0.0), m) / m
    want = 1.0 - (1.0 - p_step) ** window
    assert digital_spike_prob_exact(v0, cfg) == pytest.approx(want, abs=1e-12)


def test_dp_single_step_leak_mixture():
    # one iteration with leak: average the ramp over the two leak outcomes
    cfg = PRESETS["G2"]
    assert (cfg.window, cfg.leak) == (1, 102)
    m = float(1 << cfg.threshold_bits)

    def ramp(V):
        return min(max(math.floor(V - cfg.threshold) + 1.0, 0.0), m) / m

    for x in np.linspace(-4, 4, 41):
        v0 = cfg.scale * x
        want = 0.5 * ramp(v0) + 0.5 * ramp(v0 + cfg.leak)
        assert digital_spike_prob_exact(v0, cfg) == pytest.approx(want, abs=1e-12)


@given(st.floats(min_value=-400, max_value=400), st.floats(min_value=0.01, max_value=50))
@hyp_settings(max_examples=40)
def test_dp_monotone_in_potential(v0, dv):
    cfg = PRESETS["G5"]
    assert digital_spike_prob_exact(v0 + dv, cfg) >= digital_spike_prob_exact(v0, cfg) - 1e-12


def test_dp_window_guard():
    cfg = DigitalSamplerConfig(window=33, threshold=0, threshold_bits=8, leak=1, scale=1)
    with pytest.raises(ValueError):
        digital_spike_prob_exact(0.0, cfg)
    with pytest.raises(ValueError):
        digital_spike_prob_exact(float("inf"), step_cfg())


def test_dp_matches_monte_carlo():
    cfg = PRESETS["G4"]
    rng = derive_rng(314, 0)
    for x in (-1.5, 0.0, 0.8):
        v0 = cfg.scale * x
        hits = digital_neuron_sample(v0, cfg, rng, size=100_000)
        assert abs(hits.mean() - digital_spike_prob_exact(v0, cfg)) < 0.006


def test_preset_g4_tracks_logistic():
    cfg = PRESETS["G4"]
    xs = np.linspace(-4, 4, 81)
    err = max(abs(digital_spike_prob_exact(cfg.scale * x, cfg) - expit(x)) for x in xs)
    assert err < 0.03


# --- neuron-level sampling ---------------------------------------------------------

def test_digital_sample_draw_contract():
    cfg = PRESETS["G5"]
    rng = derive_rng(21, 5)
    digital_neuron_sample(10.0, cfg, rng, size=13)
    fresh = derive_rng(21, 5)
    fresh.random(2 * 13 * cfg.window)  # leak draws then threshold draws
    assert rng.random() == fresh.random()


def test_digital_config_validation():
    with pytest.raises(ValueError):
        DigitalSamplerConfig(window=0, threshold=0, threshold_bits=8, leak=0, scale=1)
    with pytest.raises(ValueError):
        DigitalSamplerConfig(window=1, threshold=0, threshold_bits=0, leak=0, scale=1)
    with pytest.raises(ValueError):
        DigitalSamplerConfig(window=1, threshold=0, threshold_bits=32, leak=0, scale=1)
    with pytest.raises(ValueError):
        DigitalSamplerConfig(window=1, threshold=0, threshold_bits=8, leak=0, scale=0)
    with pytest.raises(ValueError):
        DigitalSamplerConfig(window=1, threshold=0, threshold_bits=8, leak=0, scale=1,
                             leak_density=0)


def test_preset_table_frozen():
    names = [name for name, _ in PRESET_CONFIGS]
    assert names == ["G1", "G2", "G3", "G4", "G5", "G6", "G7"]
    want = {
        "G1": (1, -130, 8, 0, 50),
        "G2": (1, -80, 8, 102, 50),
        "G3": (2, 0, 8, 100, 50),
        "G4": (8, 79, 9, 49, 50),
        "G5": (16, 50, 9, 15, 30),
        "G6": (16, 100, 10, 30, 50),
        "G7": (16, 633, 8, 90, 100),
    }
    for name, cfg in PRESET_CONFIGS:
        got = (cfg.window, cfg.threshold, cfg.threshold_bits, cfg.leak, cfg.scale)
        assert got == want[name]
        assert cfg.leak_density == 1 and not cfg.random_groups


# --- digital Gibbs steps and chains -------------------------------------------------

def digital_chain(model, settings, cfg, seed):
    """One digital chain whose leak-group wiring comes from the chain's own seed."""
    return run_chain(DigitalKernel(model, cfg, seed), settings, seed)


def test_digital_step_draw_contract():
    model = random_model(5, 3, 0.4, seed=2)
    cfg = DigitalSamplerConfig(window=4, threshold=10, threshold_bits=6, leak=7,
                               scale=20, leak_density=2)
    rng = derive_rng(6, 6)
    digital_gibbs_step(model, np.array([1, 0, 1, 1, 0], dtype=np.uint8), cfg, rng)
    groups_h = -(-3 // 2)
    groups_v = -(-5 // 2)
    fresh = derive_rng(6, 6)
    fresh.random(cfg.window * (groups_h + 3 + groups_v + 5))
    assert rng.random() == fresh.random()
    kernel = DigitalKernel(model, cfg, seed=0)
    assert kernel.n_uniforms_per_step == cfg.window * (groups_h + 3 + groups_v + 5)
    assert kernel.n_normals_per_step == 0


def test_digital_chain_matches_manual_steps():
    model = random_model(4, 3, 0.6, seed=8)
    cfg = DigitalSamplerConfig(window=3, threshold=5, threshold_bits=7, leak=11,
                               scale=30, leak_density=2)
    cs = ChainSettings(n_samples=25, burn_in=80, thin=3)
    batch = digital_chain(model, cs, cfg, 15)

    v0 = (derive_rng(15, 0).random(4) < 0.5).astype(np.uint8)
    rng = derive_rng(15, 1)
    recorded = record_chain(lambda v: digital_gibbs_step(model, v, cfg, rng), v0, cs)
    np.testing.assert_array_equal(batch.samples, recorded)


def test_digital_chain_random_groups_matches_manual_steps():
    model = random_model(6, 4, 0.5, seed=3)
    cfg = DigitalSamplerConfig(window=2, threshold=0, threshold_bits=8, leak=50,
                               scale=40, leak_density=3, random_groups=True)
    cs = ChainSettings(n_samples=10, burn_in=20, thin=2)
    batch = digital_chain(model, cs, cfg, 33)

    hidden_perm = derive_rng(33, 0xD0, 0).permutation(4)
    visible_perm = derive_rng(33, 0xD0, 1).permutation(6)
    v0 = (derive_rng(33, 0).random(6) < 0.5).astype(np.uint8)
    rng = derive_rng(33, 1)
    recorded = record_chain(
        lambda v: digital_gibbs_step(model, v, cfg, rng, hidden_perm, visible_perm), v0, cs)
    np.testing.assert_array_equal(batch.samples, recorded)


def leak_dominated_cfg(density, random_groups=False):
    """With a zero model every unit's sample equals its group's leak coin:
    V starts at 0, one leak hit crosses the threshold, no hit stays below."""
    return DigitalSamplerConfig(window=1, threshold=1, threshold_bits=1, leak=5,
                                scale=1, leak_density=density,
                                random_groups=random_groups)


def test_shared_leak_makes_columns_identical():
    model = zero_model(6, 3)
    cs = ChainSettings(n_samples=50, burn_in=5, thin=1)
    full = digital_chain(model, cs, leak_dominated_cfg(6), 9)
    assert (full.samples == full.samples[:, :1]).all()
    mix = full.samples.mean()
    assert 0.2 < mix < 0.8  # the shared coin still flips between samples

    independent = digital_chain(model, cs, leak_dominated_cfg(1), 9)
    assert not (independent.samples == independent.samples[:, :1]).all()


def test_random_groups_permute_column_blocks():
    model = zero_model(4, 2)
    cs = ChainSettings(n_samples=60, burn_in=5, thin=1)
    batch = digital_chain(model, cs, leak_dominated_cfg(2, random_groups=True), 1)
    same = [(i, j) for i in range(4) for j in range(i + 1, 4)
            if (batch.samples[:, i] == batch.samples[:, j]).all()]
    # leak groups of two units -> exactly two always-equal column pairs
    assert len(same) == 2
    assert len({i for pair in same for i in pair}) == 4


def test_digital_chain_deterministic_and_labeled():
    model = random_model(4, 2, 0.3, seed=5)
    cs = ChainSettings(n_samples=5, burn_in=10, thin=1)
    cfg = PRESETS["G3"]
    a = digital_chain(model, cs, cfg, 2)
    b = digital_chain(model, cs, cfg, 2)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.sampler_id == cfg.label()


def test_digital_labels_mention_density():
    assert ",ld=16" in leak_dominated_cfg(16).label()
    assert ",ld=" not in PRESETS["G1"].label()


# --- analog sampler -------------------------------------------------------------------

def test_analog_defaults_valid():
    cfg = AnalogConfig()
    assert cfg.threshold > cfg.v_reset
    assert cfg.g_leak * cfg.dt / cfg.capacitance < 1


def test_analog_config_validation():
    with pytest.raises(ValueError):
        AnalogConfig(dt=0)
    with pytest.raises(ValueError):
        AnalogConfig(threshold=0.0, v_reset=0.0)
    with pytest.raises(ValueError):
        AnalogConfig(noise_sigma=0)
    with pytest.raises(ValueError):
        AnalogConfig(dt=1.5)  # g*dt/C >= 1
    with pytest.raises(ValueError):
        AnalogConfig(window=0)
    with pytest.raises(ValueError):
        AnalogConfig(noise_density=0)


def test_analog_sample_draw_contract():
    cfg = AnalogConfig()
    rng = derive_rng(4, 4)
    analog_lif_sample(0.3, cfg, rng, size=7)
    fresh = derive_rng(4, 4)
    fresh.standard_normal(7 * cfg.window)
    assert rng.standard_normal() == fresh.standard_normal()


def test_analog_deterministic_limits():
    # with negligible noise the neuron either never or always reaches threshold
    quiet = AnalogConfig(noise_sigma=1e-12)
    assert not analog_lif_sample(0.0, quiet, derive_rng(1), size=5).any()
    assert analog_lif_sample(2 * quiet.threshold * quiet.g_leak, quiet, derive_rng(1),
                             size=5).all()


def test_analog_monotone_in_current():
    cfg = AnalogConfig()
    rng = derive_rng(88, 1)
    rates = [analog_lif_sample(i, cfg, rng, size=4000).mean() for i in (-1.0, 0.5, 2.0)]
    assert rates[0] < rates[1] < rates[2]


def test_analog_tracks_logistic():
    cfg = AnalogConfig()
    rng = derive_rng(88, 2)
    for x in np.linspace(-3, 3, 9):
        rate = analog_lif_sample(x, cfg, rng, size=20_000).mean()
        assert abs(rate - expit(x)) < 0.04


def test_shared_noise_makes_columns_identical():
    model = zero_model(5, 2)
    cs = ChainSettings(n_samples=40, burn_in=5, thin=1)
    shared = run_chain(AnalogKernel(model, AnalogConfig(noise_density=5)), cs, seed=6)
    assert (shared.samples == shared.samples[:, :1]).all()
    solo = run_chain(AnalogKernel(model, AnalogConfig()), cs, seed=6)
    assert not (solo.samples == solo.samples[:, :1]).all()


def test_analog_chain_deterministic_and_labeled():
    model = random_model(3, 2, 0.5, seed=12)
    cs = ChainSettings(n_samples=4, burn_in=8, thin=1)
    a = run_chain(AnalogKernel(model, AnalogConfig()), cs, seed=5)
    b = run_chain(AnalogKernel(model, AnalogConfig()), cs, seed=5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.sampler_id == AnalogConfig().label()
    assert "nd=3" in AnalogConfig(noise_density=3).label()


def manual_lif_window(currents, cfg, z):
    """The LIF window as plain array expressions; z holds one (m,) noise row per tick.

    Returns each unit's spike count, resetting the membrane after every
    spike; the sample bit is count > 0, so the kernel, which latches the
    first spike and never resets, must give the same bits.
    """
    decay = 1.0 - cfg.g_leak * cfg.dt / cfg.capacitance
    drive = (cfg.dt / cfg.capacitance) * currents
    gain = (cfg.noise_sigma / cfg.capacitance) * math.sqrt(cfg.dt)
    u = np.full(currents.shape, cfg.v_reset)
    spikes = np.zeros(currents.shape, dtype=np.int64)
    for zw in z:
        u = u * decay + drive + gain * zw
        hit = u >= cfg.threshold
        spikes += hit
        u = np.where(hit, cfg.v_reset, u)
    return spikes


@pytest.mark.parametrize("density, sigma", [
    pytest.param(1, 0.8, id="1"),
    pytest.param(2, 0.8, id="2"),
    # units spike within a few ticks and cross the threshold again after a reset
    pytest.param(1, 4.0, id="strong-drive"),
])
def test_analog_chain_matches_manual_steps(density, sigma):
    """Replay an analog chain: normals (seed, 2) per step, hidden noise then visible."""
    model = random_model(5, 4, sigma, seed=21)
    cfg = AnalogConfig(noise_density=density)
    cs = ChainSettings(n_samples=30, burn_in=10, thin=2)
    batch = run_chain(AnalogKernel(model, cfg), cs, seed=17)

    w = cfg.window
    g_h, g_v = np.arange(4) // density, np.arange(5) // density
    v = (derive_rng(17, 0).random((1, 5)) < 0.5).astype(np.float64)
    z_rng = derive_rng(17, 2)
    recorded = []
    most_spikes = 0
    for step in range(1, cs.total_steps + 1):
        z = z_rng.standard_normal(w * (g_h[-1] + 1 + g_v[-1] + 1))
        z_h, z_v = z[:w * (g_h[-1] + 1)], z[w * (g_h[-1] + 1):]
        spikes_h = manual_lif_window(v @ model.W + model.b_h, cfg,
                                     z_h.reshape(w, 1, -1)[..., g_h])
        h = (spikes_h > 0).astype(np.float64)
        spikes_v = manual_lif_window(h @ model.W.T + model.b_v, cfg,
                                     z_v.reshape(w, 1, -1)[..., g_v])
        v = (spikes_v > 0).astype(np.float64)
        most_spikes = max(most_spikes, spikes_h.max(), spikes_v.max())
        done = step - cs.burn_in
        if done > 0 and done % cs.thin == 0 and len(recorded) < cs.n_samples:
            recorded.append(v[0].astype(np.uint8))
    expected = np.array(recorded)
    assert 0 < expected.mean() < 1
    assert most_spikes > 1  # some unit crossed again after a reset
    np.testing.assert_array_equal(batch.samples, expected)


# --- resource accounting ----------------------------------------------------------------

def test_resource_estimate_worked_examples():
    r = resource_estimate(256, 1)
    assert r == ResourceEstimate(data_neurons=256, leak_neurons=256, total_neurons=512,
                                 cores=2, utilization=0.5)
    r = resource_estimate(256, 256)
    assert (r.leak_neurons, r.total_neurons, r.cores) == (1, 257, 2)
    assert r.utilization == 0.5
    r = resource_estimate(100, 10)
    assert (r.leak_neurons, r.total_neurons, r.cores) == (10, 110, 1)
    assert r.utilization == pytest.approx(100 / 256)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=1024))
@hyp_settings(max_examples=80)
def test_resource_estimate_invariants(units, density, core_size):
    r = resource_estimate(units, density, core_size)
    assert r.leak_neurons == math.ceil(units / density)
    assert r.total_neurons == units + r.leak_neurons
    assert r.cores == math.ceil(r.total_neurons / core_size)
    assert 0 < r.utilization <= 1
    assert r.cores * core_size >= r.total_neurons


def test_resource_estimate_validation():
    with pytest.raises(ValueError):
        resource_estimate(0, 1)
    with pytest.raises(ValueError):
        resource_estimate(1, 0)
    with pytest.raises(ValueError):
        resource_estimate(1, 1, core_size=0)
