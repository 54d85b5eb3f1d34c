"""Hardware-style chain kernels: digital stochastic I&F neurons and analog LIF neurons.

DigitalKernel and AnalogKernel run a block Gibbs step in which every unit is
sampled by a simulated neuron instead of a logistic coin flip. Alongside
them sit the exact spike probability of the digital neuron, the G1-G7
presets, and crossbar resource accounting.

The digital neuron realizes an approximately sigmoidal activation with four
knobs: a sampling window of `window` iterations, a deterministic threshold,
a `threshold_bits`-bit uniform stochastic threshold offset, and a Bernoulli(0.5)
stochastic leak added each iteration. A unit's sample is 1 iff the neuron
spikes in any window iteration; the membrane potential is never reset inside
the window. Weights and biases are premultiplied by `scale` to use the
integer threshold range.

Leak sharing: `leak_density` = number of data units fed by one shared leak
draw. Units in a layer are partitioned into consecutive index blocks of that
size (or a seeded permutation of the layer when `random_groups` is set);
within a block all units see the same leak coin at each window iteration.

The analog neuron integrates  C du/dt = -g_L u + I + sigma * xi(t)  by
Euler-Maruyama from v_reset, and its sample is 1 iff the potential reaches a
fixed threshold within the window; noise draws can likewise be shared across
`noise_density`-sized unit groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import layered_step
from .rbm import RbmModel
from .rng import derive_rng

__all__ = [
    "DigitalSamplerConfig",
    "AnalogConfig",
    "ResourceEstimate",
    "PRESET_CONFIGS",
    "digital_spike_prob_exact",
    "resource_estimate",
    "DigitalKernel",
    "AnalogKernel",
]

_DP_WINDOW_LIMIT = 32


def _presets() -> tuple:
    # The seven bundled digital sampler presets, G1 through G7, as
    # (window, threshold, threshold_bits, leak, scale).
    table = {
        "G1": (1, -130, 8, 0, 50),
        "G2": (1, -80, 8, 102, 50),
        "G3": (2, 0, 8, 100, 50),
        "G4": (8, 79, 9, 49, 50),
        "G5": (16, 50, 9, 15, 30),
        "G6": (16, 100, 10, 30, 50),
        "G7": (16, 633, 8, 90, 100),
    }
    return tuple(
        (name, DigitalSamplerConfig(window=w, threshold=vt, threshold_bits=tm,
                                    leak=leak, scale=scale))
        for name, (w, vt, tm, leak, scale) in table.items())


@dataclass(frozen=True)
class DigitalSamplerConfig:
    """Digital sampling-neuron parameters.

    window:         iterations per sample (>= 1)
    threshold:      deterministic spike threshold (integer, may be negative)
    threshold_bits: bit width of the uniform stochastic threshold offset (1..31)
    leak:           magnitude added per Bernoulli(0.5) leak success (integer)
    scale:          multiplier applied to net inputs before sampling (> 0)
    leak_density:   data units per shared leak draw (>= 1)
    random_groups:  permute units before blocking into leak groups
    """

    window: int
    threshold: int
    threshold_bits: int
    leak: int
    scale: float
    leak_density: int = 1
    random_groups: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 1 <= self.threshold_bits <= 31:
            raise ValueError(f"threshold_bits must be in 1..31, got {self.threshold_bits}")
        if self.scale <= 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        if self.leak_density < 1:
            raise ValueError(f"leak_density must be >= 1, got {self.leak_density}")

    def label(self) -> str:
        base = (f"digital(window={self.window},threshold={self.threshold},"
                f"bits={self.threshold_bits},leak={self.leak},scale={self.scale:g}")
        if self.leak_density != 1:
            base += f",ld={self.leak_density}"
        return base + ")"


@dataclass(frozen=True)
class AnalogConfig:
    """Leaky integrate-and-fire neuron parameters for the analog sampler.

    Integration runs `window` Euler-Maruyama steps of size dt per sample;
    the sample is 1 iff the neuron spikes at least once. noise_density is
    the number of units fed by one shared Gaussian noise source.
    """

    # Defaults are tuned so the spike frequency over a window tracks the
    # logistic curve of the input current to within ~0.03.
    capacitance: float = 1.0
    g_leak: float = 1.0
    threshold: float = 0.8
    v_reset: float = 0.0
    noise_sigma: float = 1.4
    dt: float = 0.025
    window: int = 40
    noise_density: int = 1

    def __post_init__(self):
        if self.capacitance <= 0 or self.g_leak <= 0:
            raise ValueError("capacitance and g_leak must be > 0")
        if self.noise_sigma <= 0:
            raise ValueError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.threshold <= self.v_reset:
            raise ValueError("threshold must exceed v_reset")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.noise_density < 1:
            raise ValueError(f"noise_density must be >= 1, got {self.noise_density}")
        # Euler step must keep the leak update contractive.
        if self.g_leak * self.dt / self.capacitance >= 1.0:
            raise ValueError("g_leak * dt / capacitance must be < 1 for a stable step")

    def label(self) -> str:
        base = (f"analog(C={self.capacitance:g},gL={self.g_leak:g},theta={self.threshold:g},"
                f"reset={self.v_reset:g},sigma={self.noise_sigma:g},dt={self.dt:g},"
                f"window={self.window}")
        if self.noise_density != 1:
            base += f",nd={self.noise_density}"
        return base + ")"


@dataclass(frozen=True)
class ResourceEstimate:
    """Crossbar neuron accounting for one sampler deployment."""

    data_neurons: int
    leak_neurons: int
    total_neurons: int
    cores: int
    utilization: float
    core_size: int = 256


def resource_estimate(num_units: int, leak_density: int, core_size: int = 256) -> ResourceEstimate:
    """Neurons and cores needed for num_units data units at a given leak density.

    Each data unit occupies one neuron; every group of leak_density units adds
    one shared leak neuron. Utilization counts only data neurons against the
    allocated core capacity.
    """
    if num_units < 1:
        raise ValueError(f"num_units must be >= 1, got {num_units}")
    if leak_density < 1:
        raise ValueError(f"leak_density must be >= 1, got {leak_density}")
    if core_size < 1:
        raise ValueError(f"core_size must be >= 1, got {core_size}")
    leak_neurons = -(-num_units // leak_density)
    total = num_units + leak_neurons
    cores = -(-total // core_size)
    return ResourceEstimate(
        data_neurons=num_units,
        leak_neurons=leak_neurons,
        total_neurons=total,
        cores=cores,
        utilization=num_units / (cores * core_size),
        core_size=core_size,
    )


def _consecutive_groups(n_units: int, density: int, perm: np.ndarray | None) -> np.ndarray:
    """Group index of every unit: consecutive blocks of `density`, optionally permuted."""
    slots = np.arange(n_units) // density
    if perm is None:
        return slots
    group_of_unit = np.empty(n_units, dtype=np.int64)
    group_of_unit[np.asarray(perm)] = slots
    return group_of_unit


def _window_spikes(v0: np.ndarray, cfg: DigitalSamplerConfig, u_leak: np.ndarray,
                   u_thresh: np.ndarray, group_of_unit: np.ndarray | None) -> np.ndarray:
    """Spike indicator per unit over one sampling window.

    v0: (..., m) scaled initial potentials; u_leak: (..., window, g) uniforms
    for the shared leak coins (group_of_unit None: g == m, unit i reads
    column i); u_thresh: (..., window, m) uniforms for the stochastic
    threshold. Iteration order per the neuron dynamics: add the leak, then
    compare against threshold + floor(u * 2^bits).
    """
    leak_hits = u_leak < 0.5
    if group_of_unit is not None:
        leak_hits = leak_hits[..., group_of_unit]
    V = v0[..., None, :] + cfg.leak * np.cumsum(leak_hits, axis=-2, dtype=np.float64)
    levels = np.floor(u_thresh * float(1 << cfg.threshold_bits))
    return (V >= cfg.threshold + levels).any(axis=-2)


def digital_spike_prob_exact(v_initial: float, cfg: DigitalSamplerConfig) -> float:
    """Exact spike probability of the digital neuron, by dynamic programming.

    Tracks the no-spike survival mass split by the number of leak successes:
    each iteration halves the mass into the leak/no-leak branches and scales
    by the per-iteration survival 1 - p_step(V). Requires window <= 32.
    """
    if cfg.window > _DP_WINDOW_LIMIT:
        raise ValueError(f"window {cfg.window} too large for exact DP (limit {_DP_WINDOW_LIMIT})")
    v0 = float(v_initial)
    if not math.isfinite(v0):
        raise ValueError("v_initial must be finite")
    m = float(1 << cfg.threshold_bits)

    def p_step(V: np.ndarray) -> np.ndarray:
        return np.clip(np.floor(V - cfg.threshold) + 1.0, 0.0, m) / m

    # survive[k]: probability of no spike so far with k leak successes
    survive = np.zeros(cfg.window + 1)
    survive[0] = 1.0
    for t in range(1, cfg.window + 1):
        prev = survive.copy()
        entered = 0.5 * prev
        entered[1:t + 1] += 0.5 * prev[:t]
        V = v0 + cfg.leak * np.arange(cfg.window + 1, dtype=np.float64)
        survive = entered * (1.0 - p_step(V))
    return float(1.0 - survive.sum())


class DigitalKernel:
    """Block Gibbs update where every unit is sampled by the digital neuron.

    With cfg.random_groups, the leak groups block a permutation of each layer
    drawn from (seed, 0xD0, 0) for the hidden and (seed, 0xD0, 1) for the
    visible layer: one fixed crossbar wiring per run. Otherwise seed is unused.
    """

    def __init__(self, model: RbmModel, cfg: DigitalSamplerConfig, seed: int):
        self.model = model
        self.cfg = cfg
        self.label = cfg.label()
        self.n_visible = model.n_visible
        nh, nv, w = model.n_hidden, model.n_visible, cfg.window
        hidden_perm = visible_perm = None
        if cfg.random_groups:
            hidden_perm = derive_rng(seed, 0xD0, 0).permutation(nh)
            visible_perm = derive_rng(seed, 0xD0, 1).permutation(nv)
        # At leak density 1 in index order every unit has its own leak coin:
        # no gather. With random groups the map is a permutation, so it stays.
        own_coins = cfg.leak_density == 1 and not cfg.random_groups
        self._g_h = None if own_coins else _consecutive_groups(nh, cfg.leak_density, hidden_perm)
        self._g_v = None if own_coins else _consecutive_groups(nv, cfg.leak_density, visible_perm)
        self._ng_h = -(-nh // cfg.leak_density)
        self._ng_v = -(-nv // cfg.leak_density)
        # Per-step uniform layout: leak_h, thresh_h, leak_v, thresh_v.
        self._cuts = np.cumsum([w * self._ng_h, w * nh, w * self._ng_v, w * nv])
        self.n_uniforms_per_step = int(self._cuts[-1])
        self.n_normals_per_step = 0

    def _update_layer(self, net, u_leak_flat, u_thresh_flat, group_of_unit, n_groups):
        w = self.cfg.window
        m = net.shape[-1]
        u_leak = u_leak_flat.reshape(net.shape[0], w, n_groups)
        u_thresh = u_thresh_flat.reshape(net.shape[0], w, m)
        spikes = _window_spikes(self.cfg.scale * net, self.cfg, u_leak, u_thresh, group_of_unit)
        return spikes.astype(np.float64)

    def sample_hidden(self, net, u, z):
        c = self._cuts
        return self._update_layer(net, u[:, :c[0]], u[:, c[0]:c[1]], self._g_h, self._ng_h)

    def sample_visible(self, net, u, z):
        c = self._cuts
        return self._update_layer(net, u[:, c[1]:c[2]], u[:, c[2]:c[3]], self._g_v, self._ng_v)

    step = layered_step


def _lif_window(currents: np.ndarray, cfg: AnalogConfig, z: np.ndarray,
                group_of_unit: np.ndarray | None) -> np.ndarray:
    """Spike indicator per unit after `window` Euler-Maruyama steps from v_reset.

    currents: (..., m); z: (..., window, g) standard normals, shared within
    noise groups (group_of_unit None: g == m, unit i reads column i).
    The first spike is latched, so the membrane is never reset: what it does
    after a spike cannot change the output.
    """
    decay = 1.0 - cfg.g_leak * cfg.dt / cfg.capacitance
    drive = (cfg.dt / cfg.capacitance) * currents
    noise_gain = (cfg.noise_sigma / cfg.capacitance) * math.sqrt(cfg.dt)
    u = np.full(currents.shape, cfg.v_reset, dtype=np.float64)
    spiked = np.zeros(currents.shape, dtype=bool)
    hit = np.empty(currents.shape, dtype=bool)
    noise = np.empty(currents.shape, dtype=np.float64)
    for w in range(z.shape[-2]):
        zw = z[..., w, :] if group_of_unit is None else z[..., w, group_of_unit]
        # u * decay + drive + gain * z, in that order, without temporaries
        np.multiply(noise_gain, zw, out=noise)
        u *= decay
        u += drive
        u += noise
        np.greater_equal(u, cfg.threshold, out=hit)
        spiked |= hit
    return spiked


class AnalogKernel:
    """Block Gibbs update where every unit is sampled by the analog LIF neuron."""

    def __init__(self, model: RbmModel, cfg: AnalogConfig):
        self.model = model
        self.cfg = cfg
        self.label = cfg.label()
        self.n_visible = model.n_visible
        nd, nh, nv = cfg.noise_density, model.n_hidden, model.n_visible
        # At noise density 1 every unit has its own noise source: no gather.
        self._g_h = _consecutive_groups(nh, nd, None) if nd > 1 else None
        self._g_v = _consecutive_groups(nv, nd, None) if nd > 1 else None
        self._ng_h = -(-nh // nd)
        self._ng_v = -(-nv // nd)
        self.n_uniforms_per_step = 0
        # Per-step normal layout: hidden noise then visible noise.
        self.n_normals_per_step = cfg.window * (self._ng_h + self._ng_v)

    def sample_hidden(self, net, u, z):
        w = self.cfg.window
        z_h = z[:, :w * self._ng_h].reshape(-1, w, self._ng_h)
        return _lif_window(net, self.cfg, z_h, self._g_h).astype(np.float64)

    def sample_visible(self, net, u, z):
        w = self.cfg.window
        z_v = z[:, w * self._ng_h:].reshape(-1, w, self._ng_v)
        return _lif_window(net, self.cfg, z_v, self._g_v).astype(np.float64)

    step = layered_step


PRESET_CONFIGS = _presets()
