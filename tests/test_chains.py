"""The shared chain engine: chunking, stream layout, kernel protocol, stacks."""

from dataclasses import replace

import numpy as np
import pytest

from gibbsmatch import chains
from gibbsmatch.chains import BernoulliKernel, IdealKernel, StackKernel, run_chain, run_chains
from gibbsmatch.neuro import PRESET_CONFIGS, AnalogConfig, AnalogKernel, DigitalKernel
from gibbsmatch.rbm import ChainSettings, RbmModel, random_model
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


# --- stacks of kernels on one model ------------------------------------------------

def every_sampler_kind(model):
    """Ideal, G1-G7, leak density 3 with random groups, and analog with shared
    noise: uniform-only and normal-only parts, with and without a leak gather."""
    g4 = dict(PRESET_CONFIGS)["G4"]
    return ([IdealKernel(model)]
            + [DigitalKernel(model, cfg, 7) for _, cfg in PRESET_CONFIGS]
            + [DigitalKernel(model, replace(g4, leak_density=3, random_groups=True), 7),
               AnalogKernel(model, AnalogConfig(noise_density=2))])


def dyadic_model(n_visible, n_hidden, sigma, seed):
    """Weights and biases rounded to multiples of 2^-8, of magnitude well
    below 2^8: every sum of their products with 0/1 states is exact in
    float64, whatever width, kernel or summation order the BLAS uses."""
    rng = derive_rng(seed, 0xB1)

    def grid(shape):
        return np.round(sigma * rng.standard_normal(shape) * 256) / 256

    return RbmModel(W=grid((n_visible, n_hidden)), b_v=grid(n_visible), b_h=grid(n_hidden))


@pytest.mark.parametrize("target", [chains._CHUNK_TARGET_BYTES, 1])
def test_every_stacked_chain_equals_its_own_one_chain_run(monkeypatch, target):
    # 64x32 is wide enough that OpenBLAS picks its product kernel by batch
    # width; the dyadic model makes every product exact, so the stack's
    # 20-row products equal each chain's 1-row ones on any BLAS and thread
    # count. 150 steps cross chunk edges. Target 1 refills every step and
    # cuts the stack into batches of one step's largest part.
    monkeypatch.setattr(chains, "_CHUNK_TARGET_BYTES", target)
    model = dyadic_model(64, 32, 0.3, seed=4)
    kernels = every_sampler_kind(model)
    paths = [(t, i) for i in range(len(kernels)) for t in range(2)]
    cs = ChainSettings(n_samples=10, burn_in=50, thin=10)
    got = run_chains(StackKernel([(k, 2) for k in kernels]), cs, 9, paths)
    for c, path in enumerate(paths):
        alone = run_chains(kernels[c // 2], cs, 9, [path])[0]
        np.testing.assert_array_equal(got[c], alone)


def test_a_stack_of_one_part_is_its_plain_kernel(monkeypatch):
    model = random_model(4, 2, 0.3, seed=1)
    ideal, other = IdealKernel(model), IdealKernel(model)
    two = StackKernel([(ideal, 3), (other, 4)])
    assert two.parts == ((ideal, 3), (other, 4))
    assert (two.n_visible, two.n_uniforms_per_step, two.n_normals_per_step) == (4, 6, 0)
    # target 1 cuts the stack into batches of one part, and each batch steps
    # the part's plain kernel, never a stack
    monkeypatch.setattr(chains, "_CHUNK_TARGET_BYTES", 1)
    monkeypatch.setattr(StackKernel, "step", lambda *args: pytest.fail("stepped a stack"))
    cs = ChainSettings(n_samples=3, burn_in=2, thin=2)
    paths = [(c,) for c in range(7)]
    got = run_chains(two, cs, 5, paths)
    np.testing.assert_array_equal(got[:3], run_chains(ideal, cs, 5, paths[:3]))
    np.testing.assert_array_equal(got[3:], run_chains(other, cs, 5, paths[3:]))


def test_only_layered_kernels_on_one_model_stack():
    model = random_model(4, 2, 0.3, seed=1)
    same_shape = random_model(4, 2, 0.3, seed=1)
    assert isinstance(StackKernel([(IdealKernel(model), 1), (AnalogKernel(model, AnalogConfig()), 1)]),
                      StackKernel)
    for parts in ([(IdealKernel(model), 1), (IdealKernel(same_shape), 1)],
                  [(IdealKernel(model), 1), (BernoulliKernel(0.5, 4), 1)],
                  [(BernoulliKernel(0.5, 4), 1), (BernoulliKernel(0.5, 4), 1)],
                  [(IdealKernel(model), 2)],
                  # a part of 0 chains divided the draw budget by zero, and one
                  # of -1 chains ran on rows that overlapped the next part's
                  [(IdealKernel(model), 2), (AnalogKernel(model, AnalogConfig()), 0)],
                  [(IdealKernel(model), -1), (IdealKernel(model), 3)],
                  [(IdealKernel(model), 1.0), (IdealKernel(model), 1)]):
        with pytest.raises(ValueError):
            StackKernel(parts)
    with pytest.raises(ValueError):
        run_chains(StackKernel([(IdealKernel(model), 1), (IdealKernel(model), 2)]),
                   ChainSettings(n_samples=2, burn_in=0, thin=1), 0, [(0,), (1,)])


@pytest.mark.parametrize("width,n_batches", [(1, 1), (64, 4)])
def test_a_stack_holds_no_more_draws_than_its_largest_part_alone(width, n_batches):
    # the paper sweep's block: the ideal side and G1-G7 at `width` chains each
    model = random_model(784, 500, 0.01, seed=0)
    parts = [(k, width) for k in every_sampler_kind(model)[:8]]
    total = ChainSettings(n_samples=50, burn_in=1000, thin=10).total_steps
    budget, batches = chains._batches(parts, total)
    assert budget == max(chains._batches([part], total)[0] for part in parts)
    if width == 1:  # G5-G7 alone: 64 steps of windows of 16 on both layers
        assert budget == 64 * 8 * 16 * (2 * 500 + 2 * 784)
    # at width 64 one step of every part is too much: ideal to G4, then G5, G6, G7
    assert len(batches) == n_batches
    assert [part for batch in batches for part in batch] == parts
    for batch in batches:
        step = sum(chains._step_bytes(k, n) for k, n in batch)
        assert chains._chunk_steps(step, budget, total) * step <= budget
