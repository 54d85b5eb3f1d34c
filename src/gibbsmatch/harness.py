"""Repeated-trial orchestration: sampler pairs, p-value statistics, energy, EPEff.

A trial plan names two sample sources (side 0 and side 1), each a kernel
and the ChainSettings whose n_samples is the trial size. Each trial i derives
fresh per-side chain streams from (base_seed, trial, side) and a matching
tie-break seed from (base_seed, trial, 2), and runs the Crossmatch test.
Trials are independent by construction: each draws the same streams
whatever the batching, and adding trials never perturbs earlier ones.
Trials run in blocks of _BLOCK_SIZE; one loop, _trial_p_values, alone lays
out a block's chains on their (trial, side) paths. Two sides of one sampler,
as in null-check, run as one batch of its kernel. A sweep runs every config
under one base_seed, so each block of the shared reference side is drawn
once, in one batch with every config's side 1, and tested against each. A
chain's sample bits can depend on the width of its batch (see chains).

Energy is a two-coefficient linear model (active neuron-ticks plus static
core-ticks) in arbitrary units; the paper-style efficiency figure EPEff is
mean p-value per unit energy, so only rankings across configurations are
meaningful, not the absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chains import GibbsKernel, IdealKernel, StackKernel, run_chains
from .crossmatch import crossmatch_test
from .neuro import DigitalKernel, DigitalSamplerConfig, ResourceEstimate, resource_estimate
from .rbm import ChainSettings, RbmModel
from .rng import seed_sequence

__all__ = [
    "SamplerSpec",
    "TrialPlan",
    "PValueStats",
    "EnergyModel",
    "EpeffReport",
    "run_trials",
    "pvalue_stats",
    "energy_estimate",
    "epeff",
    "gibbs_ticks",
    "parameter_sweep",
    "leak_density_sweep",
]

_TIE_SIDE = 2  # seed-path slot used for the matching tie-break, after sides 0/1
_BLOCK_SIZE = 64  # trials whose chains run as one batch

HISTOGRAM_EDGES = np.round(np.arange(0.0, 1.0001, 0.05), 10)


@dataclass(frozen=True)
class SamplerSpec:
    """One side of a trial plan: a chain kernel and the schedule it runs on.

    settings.n_samples is the number of samples the side draws per trial.
    """

    kernel: GibbsKernel
    settings: ChainSettings


@dataclass(frozen=True)
class TrialPlan:
    sampler_a: SamplerSpec
    sampler_b: SamplerSpec
    num_trials: int
    base_seed: int

    def __post_init__(self):
        n = (self.sampler_a.settings.n_samples, self.sampler_b.settings.n_samples)
        if n[0] != n[1] or n[0] < 2:
            raise ValueError(f"both sides must draw the same n_samples >= 2, got {n}")
        if self.num_trials < 1:
            raise ValueError(f"num_trials must be >= 1, got {self.num_trials}")


@dataclass(frozen=True)
class PValueStats:
    """Aggregate of one plan's p-values.

    histogram uses fixed bins of width 0.05 over [0, 1]. ks_vs_uniform is the
    two-sided sup distance between the empirical CDF and Uniform[0,1];
    d_plus is the one-sided excess sup(F_hat(x) - x), the quantity bounded
    by the conservative-null calibration contract.
    """

    p_values: np.ndarray
    mean_p: float
    histogram: np.ndarray
    ks_vs_uniform: float
    d_plus: float


@dataclass(frozen=True)
class EnergyModel:
    """Linear energy coefficients, arbitrary units (no published figures exist)."""

    e_active: float = 1.0
    e_core_static: float = 10.0
    core_size: int = 256

    def __post_init__(self):
        if self.e_active <= 0 or self.e_core_static <= 0:
            raise ValueError("energy coefficients must be positive")
        if self.core_size < 1:
            raise ValueError(f"core_size must be >= 1, got {self.core_size}")


@dataclass(frozen=True)
class EpeffReport:
    label: str
    mean_p: float
    energy: float
    epeff: float
    resources: ResourceEstimate

    def __post_init__(self):
        if not abs(self.epeff * self.energy - self.mean_p) <= 1e-12:  # NaN fails too
            raise ValueError("epeff must equal mean_p / energy")


def pvalue_stats(p_values) -> PValueStats:
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        raise ValueError("no p-values to aggregate")
    if (p <= 0).any() or (p > 1).any():
        raise ValueError("p-values must lie in (0, 1]")
    hist, _ = np.histogram(p, bins=HISTOGRAM_EDGES)
    srt = np.sort(p)
    ranks = np.arange(1, p.size + 1) / p.size
    d_plus = float(np.max(ranks - srt))
    d_minus = float(np.max(srt - (ranks - 1 / p.size)))
    return PValueStats(p_values=p, mean_p=float(p.mean()), histogram=hist,
                       ks_vs_uniform=max(d_plus, d_minus, 0.0), d_plus=max(d_plus, 0.0))


def tie_seed_for_trial(base_seed: int, trial: int) -> int:
    """The matching tie-break seed used by run_trials for a given trial."""
    return int(seed_sequence(base_seed, trial, _TIE_SIDE).generate_state(1, np.uint64)[0])


def _trial_p_values(calls, num_trials: int, base_seed: int) -> list[list[float]]:
    """The one trial loop: each side-1 part's p-values against the side-0 part.

    Each call (settings, [(kernel, side), ...]) runs once per block of
    _BLOCK_SIZE trials, on paths (trial, side), as its one kernel's plain batch
    or as one StackKernel. Trial i's tests break ties with its tie_seed_for_trial.
    """
    p_values = [[] for _, parts in calls for _, side in parts if side == 1]
    for start in range(0, num_trials, _BLOCK_SIZE):
        trials = range(start, min(start + _BLOCK_SIZE, num_trials))
        n, sides = len(trials), ([], [])
        for settings, parts in calls:
            kernel = parts[0][0]
            if any(k is not kernel for k, _ in parts):
                kernel = StackKernel([(k, n) for k, _ in parts])
            samples = run_chains(kernel, settings, base_seed,
                                 [(trial, side) for _, side in parts for trial in trials])
            for i, (_, side) in enumerate(parts):
                sides[side].append(samples[i * n:(i + 1) * n])
        [xs], yss = sides
        for ps, ys in zip(p_values, yss):
            ps += [crossmatch_test(x, y, tie_seed=tie_seed_for_trial(base_seed, trial)).p_value
                   for trial, x, y in zip(trials, xs, ys)]
    return p_values


def run_trials(plan: TrialPlan) -> PValueStats:
    """Run every trial of the plan and aggregate the Crossmatch p-values.

    Trial i draws side samples from streams seeded at (base_seed, i, side)
    for side in {0, 1}; the trial blocks only batch chain execution, which
    the streams do not depend on (see chains).
    """
    a, b = plan.sampler_a, plan.sampler_b
    if a == b:
        calls = [(a.settings, [(a.kernel, 0), (a.kernel, 1)])]
    else:
        calls = [(a.settings, [(a.kernel, 0)]), (b.settings, [(b.kernel, 1)])]
    [p_values] = _trial_p_values(calls, plan.num_trials, plan.base_seed)
    return pvalue_stats(p_values)


def energy_estimate(resources: ResourceEstimate, ticks: int, em: EnergyModel) -> float:
    """Active plus static energy for a deployment held busy for `ticks` ticks."""
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    # in floats, so that an integer coefficient overflows to inf as a real one does
    energy = (float(resources.total_neurons * ticks) * em.e_active
              + float(resources.cores * ticks) * em.e_core_static)
    if not np.isfinite(energy):
        raise ValueError(f"energy estimate overflows a double: {ticks} ticks of "
                         f"{resources.total_neurons} neurons on {resources.cores} cores")
    return energy


def epeff(mean_p: float, energy: float) -> float:
    """Energy Performance Efficiency: mean p-value per unit energy."""
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    return mean_p / energy


def gibbs_ticks(settings: ChainSettings, window: int) -> int:
    """Hardware ticks per trial: each Gibbs step updates 2 layers of `window` ticks."""
    return settings.total_steps * 2 * window


def _sweep_reports(model: RbmModel, labeled_configs, reference: SamplerSpec, num_trials: int,
                   base_seed: int, em: EnergyModel) -> list[EpeffReport]:
    """EPEff reports of each (label, digital config) judged against one reference.

    Every config runs under the same base_seed, so side 0 of trial i is the
    same reference chain for all of them: each block of it is drawn once, in
    one chain batch with every config's side 1, and tested against each.
    """
    settings = reference.settings
    TrialPlan(reference, reference, num_trials, base_seed)  # checks the schedule and trial count
    parts = [(reference.kernel, 0)] + [(DigitalKernel(model, cfg, base_seed), 1)
                                       for _, cfg in labeled_configs]
    p_values = _trial_p_values([(settings, parts)], num_trials, base_seed)
    reports = []
    for (label, cfg), ps in zip(labeled_configs, p_values):
        mean_p = pvalue_stats(ps).mean_p
        resources = resource_estimate(model.n_visible + model.n_hidden,
                                      cfg.leak_density, em.core_size)
        energy = energy_estimate(resources, gibbs_ticks(settings, cfg.window), em)
        reports.append(EpeffReport(label=label, mean_p=mean_p, energy=energy,
                                   epeff=epeff(mean_p, energy), resources=resources))
    return reports


def parameter_sweep(model: RbmModel, labeled_configs, settings: ChainSettings,
                    *, num_trials: int = 200, base_seed: int,
                    energy_model: EnergyModel = EnergyModel()) -> list[EpeffReport]:
    """Ideal-vs-digital EPEff reports for each (label, config), best EPEff first.

    Every config is evaluated under the same base_seed, so identical configs
    produce identical reports.
    """
    if not labeled_configs:
        raise ValueError("no sampler configs to sweep")
    reports = _sweep_reports(model, labeled_configs, SamplerSpec(IdealKernel(model), settings),
                             num_trials, base_seed, energy_model)
    return sorted(reports, key=lambda r: r.epeff, reverse=True)


def leak_density_sweep(model: RbmModel, cfg: DigitalSamplerConfig, densities,
                       settings: ChainSettings, *, num_trials: int = 200, base_seed: int,
                       energy_model: EnergyModel = EnergyModel()) -> list[EpeffReport]:
    """EPEff across leak densities, judged against the density-1 sampler.

    The reference side is the same digital config at leak_density=1; reports
    come back in the given density order (the sweep curve), not EPEff-sorted.
    """
    densities = list(densities)
    if not densities:
        raise ValueError("no leak densities to sweep")
    reference = SamplerSpec(DigitalKernel(model, replace(cfg, leak_density=1), base_seed),
                            settings)
    return _sweep_reports(model, [(f"ld={d}", replace(cfg, leak_density=d)) for d in densities],
                          reference, num_trials, base_seed, energy_model)
