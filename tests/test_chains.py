"""The shared chain engine: chunking, stream layout, kernel protocol."""

import numpy as np
import pytest

from gibbsmatch import chains
from gibbsmatch.chains import BernoulliKernel, IdealKernel, run_chain, run_chains
from gibbsmatch.rbm import ChainSettings, random_model
from gibbsmatch.rng import derive_rng


class FlipKernel:
    """Toy kernel with a hand-checkable update rule, independent of any model.

    v' = (v + [u < 0.3] + [z0 + z1 > 0]) mod 2, so the output is a pure
    function of the engine's stream layout.
    """

    n_visible = 3
    n_uniforms_per_step = 3
    n_normals_per_step = 2

    def step(self, v, u, z):
        shift = (z[:, 0] + z[:, 1] > 0).astype(np.float64)
        return (v + (u < 0.3) + shift[:, None]) % 2


class UniformOnlyKernel:
    n_visible = 2
    n_uniforms_per_step = 2
    n_normals_per_step = 0

    def step(self, v, u, z):
        assert z is None  # engine must not allocate an unused normal stream
        return (u < 0.5).astype(np.float64)


def manual_flip_chain(settings, seed, path):
    v = (derive_rng(seed, *path, 0).random(3) < 0.5).astype(float)
    u_rng = derive_rng(seed, *path, 1)
    z_rng = derive_rng(seed, *path, 2)
    out = []
    for step in range(1, settings.total_steps + 1):
        u = u_rng.random(3)
        z = z_rng.standard_normal(2)
        v = (v + (u < 0.3) + float(z[0] + z[1] > 0)) % 2
        done = step - settings.burn_in
        if done > 0 and done % settings.thin == 0 and len(out) < settings.n_samples:
            out.append(v.astype(np.uint8))
    return np.array(out)


def test_engine_matches_manual_loop_across_chunk_boundaries(monkeypatch):
    # 220 total steps: three 64-step chunks and a 28-step tail; then, with the
    # byte target clipping 3 chains' chunk to 7 steps (120 bytes a step), 31
    # reuses of the draw buffers and a 3-step tail
    cs = ChainSettings(n_samples=40, burn_in=100, thin=3)
    paths = [(0,), (9,), (4, 1)]
    for target in (chains._CHUNK_TARGET_BYTES, 7 * 8 * len(paths) * 5):
        monkeypatch.setattr(chains, "_CHUNK_TARGET_BYTES", target)
        got = run_chains(FlipKernel(), cs, seed=5, paths=paths)
        for c, path in enumerate(paths):
            np.testing.assert_array_equal(got[c], manual_flip_chain(cs, 5, path))


def test_chunking_is_invisible():
    # same totals with and without burn-in/thin interacting with chunk edges
    cs_a = ChainSettings(n_samples=64, burn_in=0, thin=1)
    cs_b = ChainSettings(n_samples=64, burn_in=0, thin=1)
    a = run_chains(FlipKernel(), cs_a, 2, [()])
    b = run_chains(FlipKernel(), cs_b, 2, [()])
    np.testing.assert_array_equal(a, b)


def test_uniform_only_kernel_gets_no_normals():
    cs = ChainSettings(n_samples=3, burn_in=1, thin=1)
    out = run_chains(UniformOnlyKernel(), cs, 7, [()])
    assert out.shape == (1, 3, 2)
    assert set(np.unique(out)) <= {0, 1}


def test_output_dtype_and_shape():
    m = random_model(4, 2, 0.3, seed=1)
    cs = ChainSettings(n_samples=6, burn_in=5, thin=2)
    out = run_chains(IdealKernel(m), cs, 11, [(0,), (1,), (2,)])
    assert out.dtype == np.uint8
    assert out.shape == (3, 6, 4)


def test_chain_independent_of_companions():
    """A chain's samples depend only on its own path, not on batch mates."""
    m = random_model(4, 2, 0.5, seed=2)
    cs = ChainSettings(n_samples=8, burn_in=20, thin=1)
    kernel = IdealKernel(m)
    small = run_chains(kernel, cs, 3, [(5,)])
    big = run_chains(kernel, cs, 3, [(1,), (5,), (17,)])
    np.testing.assert_array_equal(small[0], big[1])


def test_ideal_kernel_counts():
    m = random_model(7, 3, 0.1, seed=0)
    k = IdealKernel(m)
    assert (k.n_visible, k.n_uniforms_per_step, k.n_normals_per_step) == (7, 10, 0)


def test_given_vector_shape_checked():
    cs = ChainSettings(n_samples=1, init="given-vector",
                       init_vector=np.array([1, 0, 1], dtype=np.uint8))
    with pytest.raises(ValueError):
        run_chains(UniformOnlyKernel(), cs, 1, [()])


def test_run_chain_records_kernel_label_and_provenance():
    m = random_model(4, 2, 0.3, seed=1)
    cs = ChainSettings(n_samples=5, burn_in=3, thin=2)
    batch = run_chain(IdealKernel(m), cs, seed=6)
    np.testing.assert_array_equal(batch.samples, run_chains(IdealKernel(m), cs, 6, [()])[0])
    assert (batch.sampler_id, batch.seed, batch.settings) == ("ideal", 6, cs)


# --- the bernoulli source -----------------------------------------------------------

def test_bernoulli_kernel_matches_direct_draws():
    """On its schedule, chain p records derive_rng(seed, *p, 1).random((n, bits)) < rate."""
    kernel = BernoulliKernel(0.3, 5)
    paths = [(0, 0), (4, 1)]
    got = run_chains(kernel, kernel.schedule(150), 9, paths)  # spans several chunks
    for c, path in enumerate(paths):
        u = derive_rng(9, *path, 1).random((150, 5))
        np.testing.assert_array_equal(got[c], u < 0.3)


def test_bernoulli_kernel_validation():
    with pytest.raises(ValueError):
        BernoulliKernel(1.5, 4)
    with pytest.raises(ValueError):
        BernoulliKernel(-0.1, 4)
    with pytest.raises(ValueError):
        BernoulliKernel(0.5, 0)
    k = BernoulliKernel(0.25, 3)
    assert (k.n_visible, k.n_uniforms_per_step, k.n_normals_per_step) == (3, 3, 0)
    assert k.label == "bernoulli(rate=0.25,bits=3)"
