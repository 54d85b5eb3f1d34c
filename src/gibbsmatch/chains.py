"""Batched Gibbs-chain execution with per-chain random streams.

Every sample source (ideal, digital, analog, bernoulli) is a kernel run by
one engine. Each chain owns three derived Philox streams -- init, uniform
draws, Gaussian draws -- so its draws are the same in any batch, at any
place in it. Its sample bits almost always are too. A kernel's matrix
product can round a row's last bit differently at another batch width (the
BLAS picks its kernel by shape: with OpenBLAS a 784x500 product does so at
most widths, a 16x8 one only between width 1 and the rest), and a bit then
flips only if its draw lands within that rounding of its threshold. Kernels
declare how many uniforms/normals one full Gibbs step consumes per chain;
the engine pre-draws them in chunks (chunking does not move any stream,
numpy generators fill arrays sequentially).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np
from scipy.special import expit

from .rbm import ChainSettings, RbmModel, SampleBatch
from .rng import derive_rng

__all__ = ["GibbsKernel", "IdealKernel", "BernoulliKernel", "run_chains", "run_chain"]

# Sub-stream tags appended to a chain's path.
_INIT, _UNIFORM, _NORMAL = 0, 1, 2

_CHUNK_TARGET_BYTES = 32 << 20


class GibbsKernel(Protocol):
    label: str
    n_visible: int
    n_uniforms_per_step: int
    n_normals_per_step: int

    def step(self, v: np.ndarray, u: np.ndarray | None, z: np.ndarray | None) -> np.ndarray:
        """Advance a (batch, n_visible) 0/1 float state by one full Gibbs step."""
        ...


class IdealKernel:
    """Sigmoid block update: resample h from v, then v from h (the software benchmark)."""

    label = "ideal"

    def __init__(self, model: RbmModel):
        self.model = model
        self.n_visible = model.n_visible
        self.n_uniforms_per_step = model.n_hidden + model.n_visible
        self.n_normals_per_step = 0

    def step(self, v, u, z):
        m = self.model
        nh = m.n_hidden
        ph = expit(v @ m.W + m.b_h)
        h = (u[:, :nh] < ph).astype(np.float64)
        pv = expit(h @ m.W.T + m.b_v)
        return (u[:, nh:] < pv).astype(np.float64)


class BernoulliKernel:
    """Model-free product-Bernoulli(rate)^n_bits source; ignores the state.

    A calibration/power reference. Run on its schedule(), sample i of the
    chain at path p is derive_rng(seed, *p, 1).random((n, n_bits))[i] < rate.
    """

    n_normals_per_step = 0

    def __init__(self, rate: float, n_bits: int):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        self.rate = rate
        self.n_visible = self.n_uniforms_per_step = n_bits
        self.label = f"bernoulli(rate={rate:g},bits={n_bits})"

    @staticmethod
    def schedule(n_samples: int) -> ChainSettings:
        """No burn-in, every step recorded: the draws are independent anyway."""
        return ChainSettings(n_samples=n_samples, burn_in=0, thin=1)

    def step(self, v, u, z):
        return (u < self.rate).astype(np.float64)


def _initial_states(n_visible: int, seed: int, paths: Sequence[tuple]) -> np.ndarray:
    """Fair-coin visible bits from each chain's init stream (ChainSettings.init)."""
    v = np.empty((len(paths), n_visible), dtype=np.float64)
    for c, path in enumerate(paths):
        v[c] = derive_rng(seed, *path, _INIT).random(n_visible) < 0.5
    return v


def run_chains(kernel: GibbsKernel, settings: ChainSettings, seed: int,
               paths: Sequence[tuple]) -> np.ndarray:
    """Run one chain per path; returns (n_chains, n_samples, n_visible) bits.

    Chain c draws from streams (seed, *paths[c], tag); its output depends
    only on (kernel, settings, seed, paths[c]).
    """
    n_chains = len(paths)
    if n_chains == 0:
        return np.empty((0, settings.n_samples, kernel.n_visible), dtype=np.uint8)

    v = _initial_states(kernel.n_visible, seed, paths)
    nu = kernel.n_uniforms_per_step
    nz = kernel.n_normals_per_step
    u_rngs = [derive_rng(seed, *p, _UNIFORM) for p in paths] if nu else []
    z_rngs = [derive_rng(seed, *p, _NORMAL) for p in paths] if nz else []

    total = settings.total_steps
    per_step_bytes = 8 * n_chains * max(nu + nz, 1)
    chunk = int(np.clip(_CHUNK_TARGET_BYTES // per_step_bytes, 1, min(64, total)))
    # One draw buffer per stream kind, refilled chain by chain every chunk.
    U = np.empty((n_chains, chunk, nu)) if nu else None
    Z = np.empty((n_chains, chunk, nz)) if nz else None

    out = np.empty((n_chains, settings.n_samples, kernel.n_visible), dtype=np.uint8)
    recorded = 0
    step = 0
    while step < total:
        k = min(chunk, total - step)
        for c, g in enumerate(u_rngs):
            g.random(out=U[c, :k])
        for c, g in enumerate(z_rngs):
            g.standard_normal(out=Z[c, :k])
        for t in range(k):
            v = kernel.step(v,
                            U[:, t] if U is not None else None,
                            Z[:, t] if Z is not None else None)
            step += 1
            done = step - settings.burn_in
            if done > 0 and done % settings.thin == 0 and recorded < settings.n_samples:
                out[:, recorded] = v
                recorded += 1
    return out


def run_chain(kernel: GibbsKernel, settings: ChainSettings, seed: int) -> SampleBatch:
    """Run one chain on streams (seed, tag) and collect its thinned visible samples."""
    samples = run_chains(kernel, settings, seed, [()])[0]
    return SampleBatch(samples=samples, sampler_id=kernel.label, seed=seed, settings=settings)
