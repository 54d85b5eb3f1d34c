"""Binary RBM model, exact desk-scale oracles, and the reference ideal Gibbs step.

The model assigns each joint state (v, h) the energy

    E(v, h) = -v.W.h - b_v.v - b_h.h

and the Boltzmann probability exp(-E) / Z. Desk-scale models (n_visible +
n_hidden <= 24) additionally support exact enumeration of the partition
function and the visible marginal, which the rest of the package uses as a
correctness oracle for samplers.
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
    "GibbsState",
    "ChainSettings",
    "SampleBatch",
    "TrainConfig",
    "random_model",
    "energy",
    "log_partition_exact",
    "exact_visible_marginal",
    "hidden_activation_probs",
    "visible_activation_probs",
    "gibbs_step",
    "cd1_train",
    "enumerate_states",
    "state_index",
]

# Exact enumeration walks all 2^(n_visible + n_hidden) joint states; cap the
# exponent to keep the oracle under ~17M evaluations.
ENUMERATION_LIMIT = 24

_ENUM_CHUNK = 1 << 16


def _as_bits(x, length: int, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.uint8)
    if arr.shape != (length,):
        raise ValueError(f"{name} must have shape ({length},), got {arr.shape}")
    if arr.max(initial=0) > 1:
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


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


@dataclass
class GibbsState:
    """One joint configuration of the visible and hidden layers (bits)."""

    v: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.v = np.ascontiguousarray(self.v, dtype=np.uint8)
        self.h = np.ascontiguousarray(self.h, dtype=np.uint8)
        for name, arr in (("v", self.v), ("h", self.h)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d bit vector")
            if arr.max(initial=0) > 1:
                raise ValueError(f"{name} entries must be 0 or 1")

    def matches(self, model: RbmModel) -> bool:
        return len(self.v) == model.n_visible and len(self.h) == model.n_hidden


@dataclass(frozen=True)
class ChainSettings:
    """How a Gibbs chain is run: burn-in, thinning, sample count, init rule.

    `init` is either "random-uniform" (each visible bit is a fair coin drawn
    from the chain's init stream) or "given-vector" (start from
    `init_vector`). Every recorded sample sits `thin` full Gibbs steps after
    the previous one; the first sits burn_in + thin steps from the start.
    """

    n_samples: int
    burn_in: int = 1000
    thin: int = 10
    init: str = "random-uniform"
    init_vector: np.ndarray | None = None

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if self.init not in ("random-uniform", "given-vector"):
            raise ValueError(f"unknown init rule {self.init!r}")
        if self.init == "given-vector":
            if self.init_vector is None:
                raise ValueError("init 'given-vector' requires init_vector")
            vec = np.ascontiguousarray(self.init_vector, dtype=np.uint8)
            vec.setflags(write=False)
            object.__setattr__(self, "init_vector", vec)

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
        arr = np.ascontiguousarray(self.samples, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"samples must be a non-empty 2-d bit matrix, got shape {arr.shape}")
        if arr.max(initial=0) > 1:
            raise ValueError("samples entries must be 0 or 1")
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


def energy(model: RbmModel, state: GibbsState) -> float:
    """E(v, h) = -v.W.h - b_v.v - b_h.h as a double."""
    if not state.matches(model):
        raise ValueError(
            f"state dims ({len(state.v)}, {len(state.h)}) do not match model "
            f"({model.n_visible}, {model.n_hidden})"
        )
    v = state.v.astype(np.float64)
    h = state.h.astype(np.float64)
    return float(-(v @ model.W @ h) - model.b_v @ v - model.b_h @ h)


def enumerate_states(k: int) -> np.ndarray:
    """All 2^k bit vectors of length k; row i holds the binary digits of i."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ENUMERATION_LIMIT:
        raise ValueError(f"refusing to enumerate 2^{k} states (limit 2^{ENUMERATION_LIMIT})")
    idx = np.arange(1 << k, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def state_index(bits: np.ndarray) -> np.ndarray:
    """Inverse of enumerate_states row order: bit vector(s) -> integer index."""
    bits = np.asarray(bits)
    k = bits.shape[-1]
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


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
    """Exact probability table over all 2^n_visible states, in enumerate_states order."""
    _check_enumerable(model)
    logw = np.concatenate([_visible_log_weights(model, vb) for vb in _iter_visible_blocks(model)])
    logw -= logsumexp(logw)
    p = np.exp(logw)
    return p / p.sum()


def hidden_activation_probs(model: RbmModel, v: np.ndarray) -> np.ndarray:
    """P(h_j = 1 | v) for every hidden unit; v may be a batch."""
    return expit(np.asarray(v, dtype=np.float64) @ model.W + model.b_h)


def visible_activation_probs(model: RbmModel, h: np.ndarray) -> np.ndarray:
    """P(v_i = 1 | h) for every visible unit; h may be a batch."""
    return expit(np.asarray(h, dtype=np.float64) @ model.W.T + model.b_v)


def gibbs_step(model: RbmModel, state: GibbsState, rng: np.random.Generator) -> GibbsState:
    """One block Gibbs update: resample all of h given v, then all of v given h.

    Consumes exactly n_hidden then n_visible uniforms from `rng`, so the
    result is a pure function of (model, state, rng stream position).
    """
    if not state.matches(model):
        raise ValueError("state dimensions do not match model")
    ph = hidden_activation_probs(model, state.v)
    h = (rng.random(model.n_hidden) < ph).astype(np.uint8)
    pv = visible_activation_probs(model, h)
    v = (rng.random(model.n_visible) < pv).astype(np.uint8)
    return GibbsState(v=v, h=h)


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
