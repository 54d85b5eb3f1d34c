"""RBM model, exact oracles, and the ideal Gibbs sampler.

The enumeration oracles here are written independently of the package
(plain Python loops + math.fsum) and pin down log Z, the visible marginal,
and the stationarity of the block Gibbs transition kernel; the reference
Gibbs step the chain engine is replayed against is in oracles.py.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gibbsmatch.chains import IdealKernel, run_chain, run_chains
from gibbsmatch.rbm import (ChainSettings, RbmModel, SampleBatch, TrainConfig,
                            cd1_train, exact_visible_marginal, log_partition_exact,
                            random_model)
from gibbsmatch.rng import derive_rng
from oracles import (enumerate_states, gibbs_step, hidden_activation_probs,
                     record_chain, state_index, visible_activation_probs)


def tiny_model(n_visible=3, n_hidden=2, sigma=0.7, seed=11):
    return random_model(n_visible, n_hidden, sigma, seed)


def oracle_energy(model, v, h):
    # independent re-derivation with plain loops
    e = 0.0
    for i in range(model.n_visible):
        for j in range(model.n_hidden):
            e -= v[i] * model.W[i, j] * h[j]
    for i in range(model.n_visible):
        e -= model.b_v[i] * v[i]
    for j in range(model.n_hidden):
        e -= model.b_h[j] * h[j]
    return e


def oracle_joint_table(model):
    """Boltzmann probabilities over all joint states, by brute force."""
    nv, nh = model.n_visible, model.n_hidden
    weights = {}
    for v in itertools.product((0, 1), repeat=nv):
        for h in itertools.product((0, 1), repeat=nh):
            weights[(v, h)] = math.exp(-oracle_energy(model, v, h))
    z = math.fsum(weights.values())
    return {k: w / z for k, w in weights.items()}, math.log(z)


# --- energy (of the brute-force oracle) -----------------------------------------

def test_energy_hand_value():
    m = RbmModel(W=np.array([[1.0]]), b_v=np.array([0.5]), b_h=np.array([-0.25]))
    assert oracle_energy(m, (1,), (1,)) == -1.25


def test_energy_zero_state_is_zero():
    assert oracle_energy(tiny_model(), (0, 0, 0), (0, 0)) == 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        RbmModel(W=np.ones((2, 2)), b_v=np.zeros(3), b_h=np.zeros(2))
    with pytest.raises(ValueError):
        RbmModel(W=np.array([[np.inf]]), b_v=np.zeros(1), b_h=np.zeros(1))


# --- exact enumeration oracles ------------------------------------------------

def test_log_partition_matches_brute_force():
    for seed in (1, 2, 3):
        m = tiny_model(seed=seed)
        _, log_z = oracle_joint_table(m)
        assert log_partition_exact(m) == pytest.approx(log_z, abs=1e-10)


def test_visible_marginal_matches_brute_force():
    m = random_model(4, 3, 0.8, seed=9)
    joint, _ = oracle_joint_table(m)
    marginal = exact_visible_marginal(m)
    for idx, v in enumerate(itertools.product((0, 1), repeat=4)):
        want = math.fsum(p for (vv, _), p in joint.items() if vv == v)
        assert marginal[idx] == pytest.approx(want, abs=1e-12)
    assert marginal.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_guard():
    with pytest.raises(ValueError):
        log_partition_exact(random_model(20, 5, 0.1, seed=0))
    with pytest.raises(ValueError):
        exact_visible_marginal(random_model(20, 5, 0.1, seed=0))


def test_enumerate_states_order():
    states = enumerate_states(3)
    assert states.shape == (8, 3)
    # row i holds the binary digits of i, most significant first
    assert states[0].tolist() == [0, 0, 0]
    assert states[1].tolist() == [0, 0, 1]
    assert states[6].tolist() == [1, 1, 0]


@given(st.integers(min_value=0, max_value=10))
def test_state_index_inverts_enumeration(k):
    states = enumerate_states(k)
    np.testing.assert_array_equal(state_index(states), np.arange(1 << k))


# --- stationarity of the block Gibbs kernel ----------------------------------

def test_boltzmann_is_stationary_under_block_gibbs():
    """pi T = pi for T[(v,h) -> (v',h')] = P(h'|v) P(v'|h')."""
    m = random_model(3, 2, 0.9, seed=21)
    vs = list(itertools.product((0, 1), repeat=3))
    hs = list(itertools.product((0, 1), repeat=2))
    joint, _ = oracle_joint_table(m)
    pi = np.array([joint[(v, h)] for v in vs for h in hs])

    def cond_prob(probs, bits):
        out = 1.0
        for p, b in zip(probs, bits):
            out *= p if b else 1.0 - p
        return out

    n_states = len(vs) * len(hs)
    T = np.zeros((n_states, n_states))
    for a, (v, h) in enumerate(itertools.product(vs, hs)):
        ph = hidden_activation_probs(m, np.array(v, dtype=float))
        for b, (v2, h2) in enumerate(itertools.product(vs, hs)):
            pv = visible_activation_probs(m, np.array(h2, dtype=float))
            T[a, b] = cond_prob(ph, h2) * cond_prob(pv, v2)
    np.testing.assert_allclose(T.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(pi @ T, pi, atol=1e-10)


# --- conditionals --------------------------------------------------------------

def test_activation_probs_match_direct_formula():
    m = tiny_model(seed=7)
    v = np.array([1.0, 0.0, 1.0])
    want = 1.0 / (1.0 + np.exp(-(v @ m.W + m.b_h)))
    np.testing.assert_allclose(hidden_activation_probs(m, v), want, atol=1e-12)
    h = np.array([0.0, 1.0])
    want = 1.0 / (1.0 + np.exp(-(h @ m.W.T + m.b_v)))
    np.testing.assert_allclose(visible_activation_probs(m, h), want, atol=1e-12)


def test_activation_probs_batched():
    m = tiny_model()
    batch = np.array([[1.0, 0, 0], [0, 1, 1]])
    out = hidden_activation_probs(m, batch)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out[0], hidden_activation_probs(m, batch[0]))


# --- gibbs step and chains -----------------------------------------------------

def test_gibbs_step_draw_contract():
    # consumes exactly n_hidden + n_visible uniforms
    m = tiny_model()
    rng = derive_rng(3, 1)
    gibbs_step(m, np.array([1, 0, 1], dtype=np.uint8), rng)
    fresh = derive_rng(3, 1)
    fresh.random(m.n_hidden + m.n_visible)
    assert rng.random() == fresh.random()


def test_gibbs_step_uses_conditional_thresholds():
    m = tiny_model(seed=13)
    v0 = np.array([1, 1, 0], dtype=np.uint8)
    v, h = gibbs_step(m, v0, derive_rng(99, 0))
    u = derive_rng(99, 0)
    ph = hidden_activation_probs(m, v0.astype(float))
    np.testing.assert_array_equal(h, (u.random(2) < ph).astype(np.uint8))
    pv = visible_activation_probs(m, h.astype(float))
    np.testing.assert_array_equal(v, (u.random(3) < pv).astype(np.uint8))


def test_run_chain_deterministic():
    m = tiny_model()
    cs = ChainSettings(n_samples=20, burn_in=30, thin=3)
    a = run_chain(IdealKernel(m), cs, seed=8)
    b = run_chain(IdealKernel(m), cs, seed=8)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.sampler_id == "ideal" and a.seed == 8


def test_run_chain_matches_manual_stepping():
    """The batched engine replays exactly as sequential gibbs_step calls."""
    m = random_model(5, 3, 0.6, seed=31)
    cs = ChainSettings(n_samples=40, burn_in=100, thin=3)
    batch = run_chain(IdealKernel(m), cs, seed=17)

    v0 = (derive_rng(17, 0).random(5) < 0.5).astype(np.uint8)
    rng = derive_rng(17, 1)
    recorded = record_chain(lambda v: gibbs_step(m, v, rng), v0, cs)
    np.testing.assert_array_equal(batch.samples, recorded)


def test_fair_coin_model_is_uniform():
    m = RbmModel(W=np.zeros((4, 2)), b_v=np.zeros(4), b_h=np.zeros(2))
    np.testing.assert_allclose(exact_visible_marginal(m), 1 / 16, atol=1e-12)
    batch = run_chain(IdealKernel(m), ChainSettings(n_samples=4000, burn_in=50, thin=1), seed=3)
    counts = np.bincount(state_index(batch.samples), minlength=16)
    tv = 0.5 * np.abs(counts / 4000 - 1 / 16).sum()
    assert tv < 0.06


def test_chain_settings_validation():
    with pytest.raises(ValueError):
        ChainSettings(n_samples=0)
    with pytest.raises(ValueError):
        ChainSettings(n_samples=1, thin=0)
    assert ChainSettings(n_samples=5, burn_in=7, thin=3).total_steps == 22


def test_sample_batch_validation():
    cs = ChainSettings(n_samples=1)
    with pytest.raises(ValueError):
        SampleBatch(samples=np.array([[0, 2]]), sampler_id="x", seed=0, settings=cs)
    with pytest.raises(ValueError):
        SampleBatch(samples=np.zeros((0, 4)), sampler_id="x", seed=0, settings=cs)


# --- batched multi-chain engine -------------------------------------------------

def test_run_chains_batch_equals_singles():
    m = random_model(6, 4, 0.5, seed=50)
    cs = ChainSettings(n_samples=15, burn_in=40, thin=2)
    kernel = IdealKernel(m)
    together = run_chains(kernel, cs, 12, [(0,), (1,), (2,)])
    for c in range(3):
        alone = run_chains(kernel, cs, 12, [(c,)])
        np.testing.assert_array_equal(together[c], alone[0])


def test_run_chains_path_order_irrelevant():
    m = tiny_model()
    cs = ChainSettings(n_samples=5, burn_in=10, thin=1)
    kernel = IdealKernel(m)
    fwd = run_chains(kernel, cs, 9, [(0,), (1,)])
    rev = run_chains(kernel, cs, 9, [(1,), (0,)])
    np.testing.assert_array_equal(fwd[0], rev[1])
    np.testing.assert_array_equal(fwd[1], rev[0])


def test_run_chains_empty_paths():
    m = tiny_model()
    out = run_chains(IdealKernel(m), ChainSettings(n_samples=3), 1, [])
    assert out.shape == (0, 3, 3)


# --- training --------------------------------------------------------------------

def test_random_model_deterministic():
    a = random_model(4, 3, 0.5, seed=77)
    b = random_model(4, 3, 0.5, seed=77)
    np.testing.assert_array_equal(a.W, b.W)
    assert not np.array_equal(a.W, random_model(4, 3, 0.5, seed=78).W)


def test_cd1_improves_reconstruction_on_clustered_data():
    rng = derive_rng(1, 0)
    proto = rng.random(500) < 0.5
    data = np.where(proto[:, None], np.ones((500, 8)), np.zeros((500, 8)))
    data = (data.astype(np.uint8) ^ (rng.random((500, 8)) < 0.05)).astype(np.uint8)
    model, history = cd1_train(data, 8, 4, TrainConfig(epochs=15), seed=6,
                               return_history=True)
    assert history[-1] < history[0]
    assert model.n_visible == 8 and model.n_hidden == 4


def test_cd1_zero_learning_rate_keeps_init():
    data = np.eye(6, dtype=np.uint8)
    hp = TrainConfig(epochs=3, learning_rate=0.0, init_sigma=0.02)
    model = cd1_train(data, 6, 3, hp, seed=44)
    init = random_model(6, 3, 0.02, seed=44)
    np.testing.assert_array_equal(model.W, init.W)
    np.testing.assert_array_equal(model.b_v, init.b_v)


def test_cd1_deterministic():
    data = (derive_rng(2, 1).random((64, 5)) < 0.4).astype(np.uint8)
    a = cd1_train(data, 5, 2, TrainConfig(epochs=2), seed=10)
    b = cd1_train(data, 5, 2, TrainConfig(epochs=2), seed=10)
    np.testing.assert_array_equal(a.W, b.W)


def test_cd1_rejects_bad_data():
    with pytest.raises(ValueError):
        cd1_train(np.zeros((0, 4)), 4, 2, TrainConfig(), seed=0)
    with pytest.raises(ValueError):
        cd1_train(np.zeros((8, 3)), 4, 2, TrainConfig(), seed=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
