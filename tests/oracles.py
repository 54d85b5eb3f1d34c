"""Reference samplers and helpers the tests compare the package against.

The ideal Gibbs step is written from the RBM conditionals alone, one chain
and one uniform per unit, so it shares no code with chains.IdealKernel. The
neuron helpers are thin adapters that drive the package's own window
functions (neuro._window_spikes, neuro._consecutive_groups, neuro._lif_window)
one neuron or one chain at a time, drawing in the documented order; the
tests then hold them to the exact digital spike probability, the logistic
curve, and the batched kernels draw for draw.
"""

import numpy as np
from scipy.special import expit

from gibbsmatch import neuro
from gibbsmatch.reports import SWEEP_COLUMNS


# --- the ideal RBM ------------------------------------------------------------

def enumerate_states(k):
    """All 2^k bit vectors of length k; row i holds the binary digits of i."""
    idx = np.arange(1 << k, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def state_index(bits):
    """Inverse of enumerate_states row order: bit vector(s) -> integer index."""
    bits = np.asarray(bits)
    weights = 1 << np.arange(bits.shape[-1] - 1, -1, -1, dtype=np.int64)
    return bits.astype(np.int64) @ weights


def hidden_activation_probs(model, v):
    """P(h_j = 1 | v) for every hidden unit; v may be a batch."""
    return expit(np.asarray(v, dtype=np.float64) @ model.W + model.b_h)


def visible_activation_probs(model, h):
    """P(v_i = 1 | h) for every visible unit; h may be a batch."""
    return expit(np.asarray(h, dtype=np.float64) @ model.W.T + model.b_v)


def gibbs_step(model, v, rng):
    """One block Gibbs update from visible state v: returns the new (v, h).

    Draws n_hidden uniforms for h given v, then n_visible for v given h.
    """
    h = (rng.random(model.n_hidden) < hidden_activation_probs(model, v)).astype(np.uint8)
    v = (rng.random(model.n_visible) < visible_activation_probs(model, h)).astype(np.uint8)
    return v, h


def record_chain(step, v0, settings):
    """The visible states a chain keeps when v -> step(v)[0] is one Gibbs step.

    As ChainSettings defines it: after burn_in steps, every thin-th state,
    until n_samples are kept.
    """
    v = v0
    recorded = []
    for step_no in range(1, settings.total_steps + 1):
        v = step(v)[0]
        done = step_no - settings.burn_in
        if done > 0 and done % settings.thin == 0 and len(recorded) < settings.n_samples:
            recorded.append(v.copy())
    return np.array(recorded)


# --- the hardware neurons -------------------------------------------------------

def digital_neuron_sample(v_initial, cfg, rng, size):
    """`size` independent bits of one digital neuron started at v_initial.

    Draws size x window leak uniforms, then as many threshold uniforms.
    """
    u_leak = rng.random((size, cfg.window, 1))
    u_thresh = rng.random((size, cfg.window, 1))
    spikes = neuro._window_spikes(np.full((size, 1), float(v_initial)), cfg, u_leak,
                                  u_thresh, np.zeros(1, dtype=np.int64))
    return spikes[:, 0].astype(np.uint8)


def digital_gibbs_step(model, v, cfg, rng, hidden_perm=None, visible_perm=None):
    """One block Gibbs update with a digital neuron per unit: returns the new (v, h).

    Draw order: (window, hidden groups) leak uniforms, (window, n_hidden)
    threshold uniforms, then the same for the visible layer.
    """
    def layer(net, perm):
        groups = neuro._consecutive_groups(net.shape[-1], cfg.leak_density, perm)
        u_leak = rng.random((1, cfg.window, int(groups.max()) + 1))
        u_thresh = rng.random((1, cfg.window, net.shape[-1]))
        return neuro._window_spikes(cfg.scale * net, cfg, u_leak, u_thresh,
                                    groups).astype(np.float64)

    h = layer((v.astype(np.float64) @ model.W + model.b_h)[None, :], hidden_perm)
    v = layer(h @ model.W.T + model.b_v, visible_perm)
    return v[0].astype(np.uint8), h[0].astype(np.uint8)


def analog_lif_sample(input_current, cfg, rng, size):
    """`size` independent bits of one analog LIF neuron at a constant current.

    Draws size x window standard normals.
    """
    z = rng.standard_normal((size, cfg.window, 1))
    spikes = neuro._lif_window(np.full((size, 1), float(input_current)), cfg, z, None)
    return spikes[:, 0].astype(np.uint8)


# --- reports ------------------------------------------------------------------------

def parse_sweep_csv(text):
    """Rows of a sweep CSV as dicts, typed by column."""
    lines = text.strip("\n").split("\n")
    if lines[0] != ",".join(SWEEP_COLUMNS):
        raise ValueError(f"unexpected sweep CSV header: {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        label, mean_p, energy, epeff, cores = line.split(",")
        rows.append({"label": label, "mean_p": float(mean_p), "energy": float(energy),
                     "epeff": float(epeff), "cores": int(cores)})
    return rows
