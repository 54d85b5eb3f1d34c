"""Binary RBM model, exact desk-scale oracles, sample batches and CD-1 training.

The model assigns each joint state (v, h) the energy

    E(v, h) = -v.W.h - b_v.v - b_h.h

and the Boltzmann probability exp(-E) / Z. Desk-scale models (n_visible +
n_hidden <= 24) additionally support exact enumeration of the partition
function and the visible marginal, which the tests use as a correctness
oracle for samplers. The Gibbs update itself lives in the chain kernels
(chains.IdealKernel and the hardware kernels in neuro).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import expit, logsumexp

from .rng import derive_rng

__all__ = [
    "ENUMERATION_LIMIT",
    "RbmModel",
    "ChainSettings",
    "SampleBatch",
    "TrainConfig",
    "random_model",
    "log_partition_exact",
    "exact_visible_marginal",
    "cd1_train",
]

# Exact enumeration walks all 2^(n_visible + n_hidden) joint states; cap the
# exponent to keep the oracle under ~17M evaluations.
ENUMERATION_LIMIT = 24

_ENUM_CHUNK = 1 << 16


def as_bits(x, name: str) -> np.ndarray:
    """x as a C-contiguous uint8 array, once every entry is known to be 0 or 1.

    uint8 and bool input needs one max() pass. Any other dtype is compared
    with 0 and 1 before the cast, so 0.5, 1.2, 256 or NaN raise instead of
    truncating or wrapping to a bit.
    """
    arr = np.asarray(x)
    if arr.dtype == np.uint8 or arr.dtype == np.bool_:
        ok = arr.max(initial=0) <= 1
    else:
        ok = ((arr == 0) | (arr == 1)).all()
    if not ok:
        raise ValueError(f"{name} entries must be 0 or 1")
    return np.ascontiguousarray(arr, dtype=np.uint8)


@dataclass(frozen=True)
class RbmModel:
    """RBM parameters: weight matrix and the two bias vectors.

    W has shape (n_visible, n_hidden); b_v and b_h match the visible and
    hidden layer sizes. All entries must be finite.
    """

    W: np.ndarray
    b_v: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        W = np.ascontiguousarray(self.W, dtype=np.float64)
        b_v = np.ascontiguousarray(self.b_v, dtype=np.float64)
        b_h = np.ascontiguousarray(self.b_h, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"W must be a 2-d matrix, got ndim={W.ndim}")
        if b_v.shape != (W.shape[0],):
            raise ValueError(f"b_v has length {b_v.shape}, expected ({W.shape[0]},)")
        if b_h.shape != (W.shape[1],):
            raise ValueError(f"b_h has length {b_h.shape}, expected ({W.shape[1]},)")
        for name, arr in (("W", W), ("b_v", b_v), ("b_h", b_h)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
        for arr in (W, b_v, b_h):
            arr.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b_v", b_v)
        object.__setattr__(self, "b_h", b_h)

    @property
    def n_visible(self) -> int:
        return self.W.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class ChainSettings:
    """How a Gibbs chain is run: burn-in, thinning and sample count.

    Every chain starts from the "random-uniform" rule (`init`): each visible
    bit is a fair coin drawn from the chain's init stream. Every recorded
    sample sits `thin` full Gibbs steps after the previous one; the first
    sits burn_in + thin steps from the start.
    """

    n_samples: int
    burn_in: int = 1000
    thin: int = 10
    init = "random-uniform"  # the only start rule: a class constant, not a field

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")

    @property
    def total_steps(self) -> int:
        return self.burn_in + self.thin * self.n_samples


@dataclass(frozen=True)
class SampleBatch:
    """n recorded visible vectors plus the provenance needed to regenerate them."""

    samples: np.ndarray
    sampler_id: str
    seed: int
    settings: ChainSettings

    def __post_init__(self):
        arr = as_bits(self.samples, "samples")
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"samples must be a non-empty 2-d bit matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def n_visible(self) -> int:
        return self.samples.shape[1]


def random_model(n_visible: int, n_hidden: int, sigma: float, seed: int) -> RbmModel:
    """Gaussian-weight model (std `sigma`), zero biases; deterministic in seed."""
    if n_visible < 1 or n_hidden < 1:
        raise ValueError("layer sizes must be >= 1")
    rng = derive_rng(seed, 0xB0)
    W = sigma * rng.standard_normal((n_visible, n_hidden))
    return RbmModel(W=W, b_v=np.zeros(n_visible), b_h=np.zeros(n_hidden))


def _check_enumerable(model: RbmModel) -> None:
    if model.n_visible + model.n_hidden > ENUMERATION_LIMIT:
        raise ValueError(
            f"model too large for exact enumeration: n_visible + n_hidden = "
            f"{model.n_visible + model.n_hidden} > {ENUMERATION_LIMIT}"
        )


def _iter_visible_blocks(model: RbmModel) -> Iterator[np.ndarray]:
    n = 1 << model.n_visible
    shifts = np.arange(model.n_visible - 1, -1, -1, dtype=np.uint32)
    for start in range(0, n, _ENUM_CHUNK):
        idx = np.arange(start, min(start + _ENUM_CHUNK, n), dtype=np.uint32)
        yield ((idx[:, None] >> shifts[None, :]) & 1).astype(np.float64)


def _visible_log_weights(model: RbmModel, v_block: np.ndarray) -> np.ndarray:
    # log sum_h exp(-E(v, h)) = b_v.v + sum_j softplus(v.W_j + b_h_j)
    act = v_block @ model.W + model.b_h
    return v_block @ model.b_v + np.logaddexp(0.0, act).sum(axis=1)


def log_partition_exact(model: RbmModel) -> float:
    """log Z over all joint states, stable in log space.

    Hidden units are summed analytically per visible state; visible states
    are enumerated in blocks. Valid only under the enumeration guard.
    """
    _check_enumerable(model)
    block_totals = [logsumexp(_visible_log_weights(model, vb)) for vb in _iter_visible_blocks(model)]
    return float(logsumexp(block_totals))


def exact_visible_marginal(model: RbmModel) -> np.ndarray:
    """Exact probability table over all 2^n_visible visible states.

    Entry i is the probability of the state whose bits, most significant
    first, are the binary digits of i: v[0] is the high bit.
    """
    _check_enumerable(model)
    logw = np.concatenate([_visible_log_weights(model, vb) for vb in _iter_visible_blocks(model)])
    logw -= logsumexp(logw)
    p = np.exp(logw)
    return p / p.sum()


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one-step contrastive-divergence training."""

    epochs: int = 20
    learning_rate: float = 0.1
    batch_size: int = 32
    init_sigma: float = 0.01

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def cd1_train(data: np.ndarray, n_visible: int, n_hidden: int, hyperparams: TrainConfig,
              seed: int, return_history: bool = False):
    """One-step contrastive divergence on binary data.

    Hidden states are sampled on the positive phase; the reconstruction and
    its hidden activations use probabilities. Returns the trained model, or
    (model, per-epoch mean reconstruction errors) with return_history. The
    per-epoch error typically decreases but is not guaranteed to.
    """
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("data must be a non-empty 2-d bit matrix")
    if data.shape[1] != n_visible:
        raise ValueError(f"data rows have length {data.shape[1]}, expected {n_visible}")

    hp = hyperparams
    init = random_model(n_visible, n_hidden, hp.init_sigma, seed)
    W = init.W.copy()
    b_v = init.b_v.copy()
    b_h = init.b_h.copy()
    shuffle_rng = derive_rng(seed, 0xC0)
    sample_rng = derive_rng(seed, 0xC1)

    history = []
    for _ in range(hp.epochs):
        order = shuffle_rng.permutation(data.shape[0])
        err_sum = 0.0
        for start in range(0, data.shape[0], hp.batch_size):
            X = data[order[start:start + hp.batch_size]]
            ph = expit(X @ W + b_h)
            hs = (sample_rng.random(ph.shape) < ph).astype(np.float64)
            pv = expit(hs @ W.T + b_v)
            ph_recon = expit(pv @ W + b_h)
            scale = hp.learning_rate / X.shape[0]
            W += scale * (X.T @ ph - pv.T @ ph_recon)
            b_v += scale * (X - pv).sum(axis=0)
            b_h += scale * (ph - ph_recon).sum(axis=0)
            err_sum += ((X - pv) ** 2).sum()
        history.append(err_sum / data.size)

    model = RbmModel(W=W, b_v=b_v, b_h=b_h)
    return (model, history) if return_history else model
