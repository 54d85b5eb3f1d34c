"""Quantify how faithfully hardware-style Gibbs samplers reproduce an RBM.

The package couples three things: exact/ideal RBM Gibbs sampling, simulated
neuromorphic samplers (digital stochastic integrate-and-fire and analog LIF
neurons), and the Crossmatch two-sample test that turns "do these samplers
agree?" into calibrated p-values. On top sit repeated-trial harnesses, an
energy model, and EPEff sweeps for choosing sampler configurations.
"""

from .chains import BernoulliKernel, IdealKernel, run_chain
from .crossmatch import CrossmatchOutcome, crossmatch_test, null_pmf, p_value
from .harness import (EnergyModel, EpeffReport, PValueStats, SamplerSpec, TrialPlan,
                      epeff, leak_density_sweep, parameter_sweep, run_trials)
from .neuro import (AnalogConfig, AnalogKernel, DigitalKernel, DigitalSamplerConfig,
                    ResourceEstimate, digital_spike_prob_exact, resource_estimate)
from .rbm import (ChainSettings, RbmModel, SampleBatch, TrainConfig, cd1_train,
                  exact_visible_marginal, log_partition_exact, random_model)

__version__ = "0.1.0"
