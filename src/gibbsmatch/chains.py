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

Kernels on one model split their step into a hidden and a visible layer
update, so a StackKernel can run several of them as one batch: each step
computes v @ W + b_h and h @ W.T + b_v once for the rows of every part, and
each part updates its own rows from its own draws. A part's rows therefore
see the matrix products of the whole stack's width, and the rounding caveat
above holds across the stacked kernels too. A stack's draw buffers hold no
more than its largest part's would alone; where one step of every part is
more than that, run_chains steps the parts in consecutive batches.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np
from scipy.special import expit

from .rbm import ChainSettings, RbmModel, SampleBatch
from .rng import derive_rng

__all__ = ["GibbsKernel", "IdealKernel", "BernoulliKernel", "StackKernel", "stack", "layered_step",
           "run_chains", "run_chain"]

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


def layered_step(kernel, v, u, z):
    """One full Gibbs step of a kernel that splits it into layer updates:
    kernel.sample_hidden(v @ W + b_h), then kernel.sample_visible(h @ W.T + b_v).
    Such kernels take it as their step method."""
    m = kernel.model
    h = kernel.sample_hidden(v @ m.W + m.b_h, u, z)
    return kernel.sample_visible(h @ m.W.T + m.b_v, u, z)


class IdealKernel:
    """Sigmoid block update: resample h from v, then v from h (the software benchmark)."""

    label = "ideal"

    def __init__(self, model: RbmModel):
        self.model = model
        self.n_visible = model.n_visible
        self.n_uniforms_per_step = model.n_hidden + model.n_visible
        self.n_normals_per_step = 0

    def sample_hidden(self, net, u, z):
        return (u[:, :self.model.n_hidden] < expit(net)).astype(np.float64)

    def sample_visible(self, net, u, z):
        return (u[:, self.model.n_hidden:] < expit(net)).astype(np.float64)

    step = layered_step


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


class StackKernel:
    """Several kernels on one model, stepped as one batch.

    parts holds (kernel, n_chains) pairs; each part owns the next n_chains
    rows of the state. step takes u and z as sequences with one entry per
    part: that part's rows of draws, or None. The per-step draw counts are
    averages over the stack's chains, so 8 * n_chains * (n_uniforms_per_step
    + n_normals_per_step) is the bytes of draws of one step of the stack.
    """

    def __init__(self, parts):
        parts = tuple(parts)
        model = getattr(parts[0][0], "model", None)
        if len(parts) < 2 or model is None or not all(
                getattr(k, "model", None) is model and hasattr(k, "sample_hidden")
                for k, _ in parts):
            raise ValueError("a stack needs two or more layered kernels on one model")
        self.parts = parts
        self.model = model
        self.label = "+".join(kernel.label for kernel, _ in parts)
        self.n_visible = self.model.n_visible
        n_chains = sum(n for _, n in parts)
        self.n_uniforms_per_step = sum(k.n_uniforms_per_step * n for k, n in parts) / n_chains
        self.n_normals_per_step = sum(k.n_normals_per_step * n for k, n in parts) / n_chains
        ends = np.cumsum([n for _, n in parts])
        self._layers = [(kernel, slice(end - n, end)) for (kernel, n), end in zip(parts, ends)]

    def sample_hidden(self, net, u, z):
        return np.concatenate([k.sample_hidden(net[rows], ur, zr)
                               for (k, rows), ur, zr in zip(self._layers, u, z)])

    def sample_visible(self, net, u, z):
        return np.concatenate([k.sample_visible(net[rows], ur, zr)
                               for (k, rows), ur, zr in zip(self._layers, u, z)])

    step = layered_step


def stack(parts) -> GibbsKernel:
    """One kernel for the rows of (kernel, n_chains) parts, in order. A single
    part is its plain kernel, so a batch of one sampler runs as it does alone."""
    return parts[0][0] if len(parts) == 1 else StackKernel(parts)


def _initial_states(n_visible: int, seed: int, paths: Sequence[tuple]) -> np.ndarray:
    """Fair-coin visible bits from each chain's init stream (ChainSettings.init)."""
    v = np.empty((len(paths), n_visible), dtype=np.float64)
    for c, path in enumerate(paths):
        v[c] = derive_rng(seed, *path, _INIT).random(n_visible) < 0.5
    return v


def _step_bytes(kernel: GibbsKernel, n_chains: int) -> int:
    return 8 * n_chains * max(kernel.n_uniforms_per_step + kernel.n_normals_per_step, 1)


def _chunk_steps(step_bytes: int, budget: int, total: int) -> int:
    """Steps of draws per refill: as many as fit the budget, 1 to 64."""
    return int(np.clip(budget // step_bytes, 1, min(64, total)))


def _batches(parts, total: int) -> tuple[int, list]:
    """The draw budget of a run and its parts cut into consecutive batches.

    One kernel alone refills _CHUNK_TARGET_BYTES of draws at a time (at
    least one step). A stack's buffers hold no more than its largest part's
    would alone: its parts step as one batch while one step of draws of all
    of them fits that budget, and in consecutive batches where it does not.
    """
    sizes = [_step_bytes(kernel, n) for kernel, n in parts]
    budget = max(b * _chunk_steps(b, _CHUNK_TARGET_BYTES, total) for b in sizes)
    batches, used = [], 0
    for part, b in zip(parts, sizes):
        if not batches or used + b > budget:
            batches.append([])
            used = 0
        batches[-1].append(part)
        used += b
    return budget, batches


def _streams(seed: int, paths: Sequence[tuple], tag: int, width: int, chunk: int):
    """Each path's generator of one stream kind and their (chains, chunk,
    width) draw buffer; no generators and no buffer when width is 0."""
    if not width:
        return [], None
    return [derive_rng(seed, *p, tag) for p in paths], np.empty((len(paths), chunk, width))


def run_chains(kernel: GibbsKernel, settings: ChainSettings, seed: int,
               paths: Sequence[tuple]) -> np.ndarray:
    """Run one chain per path; returns (n_chains, n_samples, n_visible) bits.

    Chain c draws from streams (seed, *paths[c], tag); its output depends
    only on (its kernel, settings, seed, paths[c]). A StackKernel's parts
    take the paths in order, each chain drawing its own part's counts.
    """
    n_chains = len(paths)
    out = np.empty((n_chains, settings.n_samples, kernel.n_visible), dtype=np.uint8)
    if n_chains == 0:
        return out
    parts = kernel.parts if isinstance(kernel, StackKernel) else ((kernel, n_chains),)
    if sum(n for _, n in parts) != n_chains:
        raise ValueError(f"the stack's parts hold {sum(n for _, n in parts)} chains, "
                         f"got {n_chains} paths")
    budget, batches = _batches(parts, settings.total_steps)
    start = 0
    for batch in batches:
        rows = slice(start, start + sum(n for _, n in batch))
        _run_batch(kernel if len(batches) == 1 else stack(batch), batch, settings, seed,
                   paths[rows], budget, out[rows])
        start = rows.stop
    return out


def _run_batch(kernel: GibbsKernel, parts, settings: ChainSettings, seed: int,
               paths: Sequence[tuple], budget: int, out: np.ndarray) -> None:
    """run_chains on one batch of parts, recording into out."""
    stacked = isinstance(kernel, StackKernel)
    v = _initial_states(kernel.n_visible, seed, paths)
    total = settings.total_steps
    chunk = _chunk_steps(sum(_step_bytes(k, n) for k, n in parts), budget, total)
    # One draw buffer per part and stream kind, refilled chain by chain every chunk.
    us, zs = [], []
    start = 0
    for part, n in parts:
        part_paths = paths[start:start + n]
        start += n
        us.append(_streams(seed, part_paths, _UNIFORM, part.n_uniforms_per_step, chunk))
        zs.append(_streams(seed, part_paths, _NORMAL, part.n_normals_per_step, chunk))
    U, Z = us[0][1], zs[0][1]

    recorded = 0
    step = 0
    while step < total:
        k = min(chunk, total - step)
        for rngs, buf in us:
            for c, g in enumerate(rngs):
                g.random(out=buf[c, :k])
        for rngs, buf in zs:
            for c, g in enumerate(rngs):
                g.standard_normal(out=buf[c, :k])
        for t in range(k):
            if stacked:
                v = kernel.step(v, [None if b is None else b[:, t] for _, b in us],
                                [None if b is None else b[:, t] for _, b in zs])
            else:
                v = kernel.step(v,
                                U[:, t] if U is not None else None,
                                Z[:, t] if Z is not None else None)
            step += 1
            done = step - settings.burn_in
            if done > 0 and done % settings.thin == 0 and recorded < settings.n_samples:
                out[:, recorded] = v
                recorded += 1


def run_chain(kernel: GibbsKernel, settings: ChainSettings, seed: int) -> SampleBatch:
    """Run one chain on streams (seed, tag) and collect its thinned visible samples."""
    samples = run_chains(kernel, settings, seed, [()])[0]
    return SampleBatch(samples=samples, sampler_id=kernel.label, seed=seed, settings=settings)
