"""Repeated-trial orchestration: sampler pairs, p-value statistics, energy, EPEff.

A trial plan names two sample sources (side 0 and side 1), each a kernel
and the ChainSettings whose n_samples is the trial size. Each trial i derives
fresh per-side chain streams from (base_seed, trial, side) and a matching
tie-break seed from (base_seed, trial, 2), and runs the Crossmatch test.
Trials are independent by construction: each draws the same streams
whatever the batching, and adding trials never perturbs earlier ones.
Trials run in blocks of _BLOCK_SIZE; when both sides share one sampler, as
in null-check, a block's two sides run as one chain batch. A sweep runs
every config under one base_seed, so each block of the shared reference
side is drawn once, in the same batch as every config's side 1, and tested
against each of them. Stacked kernels share each step's matrix products,
so a chain's rows see the rounding of the whole batch's width (see chains):
a sample bit can differ from the same chain run alone when its draw lands
within a last-bit rounding of its threshold.

Energy is a two-coefficient linear model (active neuron-ticks plus static
core-ticks) in arbitrary units; the paper-style efficiency figure EPEff is
mean p-value per unit energy, so only rankings across configurations are
meaningful, not the absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chains import GibbsKernel, IdealKernel, run_chains, stack
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
        if abs(self.epeff * self.energy - self.mean_p) > 1e-12:
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


def _side_samples(spec: SamplerSpec, base_seed: int, side: int, trials: range) -> np.ndarray:
    return run_chains(spec.kernel, spec.settings, base_seed, [(trial, side) for trial in trials])


def _both_sides(plan: TrialPlan, trials: range) -> tuple[np.ndarray, np.ndarray]:
    """Side 0 and side 1 of a block of trials; one chain batch when both sides
    share a sampler."""
    if plan.sampler_a != plan.sampler_b:
        return (_side_samples(plan.sampler_a, plan.base_seed, 0, trials),
                _side_samples(plan.sampler_b, plan.base_seed, 1, trials))
    spec = plan.sampler_a
    both = run_chains(spec.kernel, spec.settings, plan.base_seed,
                      [(trial, 0) for trial in trials] + [(trial, 1) for trial in trials])
    return both[:len(trials)], both[len(trials):]


def _trial_blocks(num_trials: int) -> list[range]:
    return [range(start, min(start + _BLOCK_SIZE, num_trials))
            for start in range(0, num_trials, _BLOCK_SIZE)]


def tie_seed_for_trial(base_seed: int, trial: int) -> int:
    """The matching tie-break seed used by run_trials for a given trial."""
    return int(seed_sequence(base_seed, trial, _TIE_SIDE).generate_state(1, np.uint64)[0])


def _block_p_values(plan: TrialPlan, trials: range, xs: np.ndarray,
                    ys: np.ndarray) -> list[float]:
    """The block loop's body, shared by run_trials and the sweeps: the
    p-values of a block of trials from its side 0, xs, and side 1, ys."""
    return [crossmatch_test(x, y, tie_seed=tie_seed_for_trial(plan.base_seed, trial)).p_value
            for trial, x, y in zip(trials, xs, ys)]


def run_trials(plan: TrialPlan) -> PValueStats:
    """Run every trial of the plan and aggregate the Crossmatch p-values.

    Trial i draws side samples from streams seeded at (base_seed, i, side)
    for side in {0, 1} and breaks matching ties with tie_seed_for_trial's
    stream. The trial blocks only batch chain execution: the streams do not
    depend on the batching (see chains).
    """
    p_values = []
    for trials in _trial_blocks(plan.num_trials):
        p_values += _block_p_values(plan, trials, *_both_sides(plan, trials))
    return pvalue_stats(p_values)


def energy_estimate(resources: ResourceEstimate, ticks: int, em: EnergyModel) -> float:
    """Active plus static energy for a deployment held busy for `ticks` ticks."""
    if ticks < 1:
        raise ValueError(f"ticks must be >= 1, got {ticks}")
    return (resources.total_neurons * ticks * em.e_active
            + resources.cores * ticks * em.e_core_static)


def epeff(mean_p: float, energy: float) -> float:
    """Energy Performance Efficiency: mean p-value per unit energy."""
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    return mean_p / energy


def gibbs_ticks(settings: ChainSettings, window: int) -> int:
    """Hardware ticks per trial: each Gibbs step updates 2 layers of `window` ticks."""
    return settings.total_steps * 2 * window


def _sweep_reports(model: RbmModel, labeled_configs, reference: SamplerSpec,
                   settings: ChainSettings, num_trials: int, base_seed: int,
                   em: EnergyModel) -> list[EpeffReport]:
    """EPEff reports of each (label, digital config) judged against one reference.

    Every config runs under the same base_seed, so side 0 of trial i is the
    same reference chain for all of them: each block of it is drawn once and
    tested against every config. A block's reference chains and every
    config's side 1 run as one chain batch.
    """
    plans = [TrialPlan(sampler_a=reference,
                       sampler_b=SamplerSpec(DigitalKernel(model, cfg, base_seed), settings),
                       num_trials=num_trials, base_seed=base_seed)
             for _, cfg in labeled_configs]
    p_values = [[] for _ in plans]
    for trials in _trial_blocks(num_trials):
        n = len(trials)
        kernel = stack([(reference.kernel, n)] + [(plan.sampler_b.kernel, n) for plan in plans])
        samples = run_chains(kernel, settings, base_seed,
                             [(trial, 0) for trial in trials]
                             + [(trial, 1) for trial in trials] * len(plans))
        for i, (plan, ps) in enumerate(zip(plans, p_values), 1):
            ps += _block_p_values(plan, trials, samples[:n], samples[i * n:(i + 1) * n])
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
                             settings, num_trials, base_seed, energy_model)
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
                          reference, settings, num_trials, base_seed, energy_model)
