"""Guided diffusion sampling via a weighted endpoint-conditioned drift correction.

The package pairs a small sampling engine (schedules, guided drifts, Euler
solvers, a trainable score net) with exact Gaussian-mixture oracles so every
identity the sampler relies on can be verified numerically at desk scale.
"""

from ._version import __version__
from .errors import (ConfigError, DegeneratePosteriorError, DivergenceError,
                     SingularityError, TimeRangeError, TrainingError)
from .schedules import NoiseSchedule, WeightSchedule
from .oracle import (DegradationOperator, GaussianMixture, PairedSample, blur_1d,
                     conditional_score, degrade, downsample, exact_h, gm_logpdf,
                     gm_pushforward, gm_sample, gm_score, identity_operator,
                     linear_gaussian_posterior, mask, posterior_mean, shrink)
from .scorenet import (MlpNet, ScoreModel, TrainConfig, dsm_loss_grad, eps_to_score,
                       load_weights, mixture_score_model, net_score_model,
                       save_weights, score_to_eps, score_to_velocity, train,
                       velocity_to_score)
from .guidance import (GuidanceSpec, GuidedDrift, approx_h, approximation_error,
                       guided_eps, guided_epsilon_drift, guided_score_drift,
                       guided_velocity_drift, h_guided_drift, lambda_weights,
                       region_exponents, sdedit_start, unguided_drift)
from .solvers import (SamplerConfig, Trajectory, marginal_stats, ode_ensemble,
                      sample_ode, sde_ensemble, trial_rng)
from .config import ExperimentConfig, rbf_field_prior
from .experiments import (RunRecord, run_ablate_exponent, run_ablate_weight_family,
                          run_baseline_sdedit, run_restore, run_sample_unguided)
from .verify import run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
