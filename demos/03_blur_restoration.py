"""Restoring a smooth 1-d field from a blurred, noisy observation.

The guided sampler never sees the blur operator; it only pulls toward the
coarse observation with a noise-level-aware weight.  The conjugate posterior
mean (which does know the operator) provides the MMSE floor.
"""

import numpy as np

from htx import (NoiseSchedule, SamplerConfig, WeightSchedule, blur_1d,
                 linear_gaussian_posterior, rbf_field_prior)
from htx.experiments import draw_trials, mean_se, posterior_mse, restore_trials

schedule = NoiseSchedule.vp()
prior = rbf_field_prior(cells=16, length_scale=3.0)
operator = blur_1d(kernel_std=2.0, grid_size=16, noise_std=0.25)
cfg = SamplerConfig(steps=1000, start=schedule.t_max, end=schedule.t_min, seed=31)
weights = WeightSchedule("power_of_sigma", exponent=5.0)

# both arms and the posterior reference see the same drawn trials
trials = 100
drawn = draw_trials(prior, operator, trials, 31)
guided = restore_trials(prior, schedule, cfg, drawn, weights)
unguided = restore_trials(prior, schedule, cfg, drawn, None)

rows = {
    "guided (a = 5)": guided["mse_to_y"],
    "unguided": unguided["mse_to_y"],
    "posterior mean (knows operator)": posterior_mse(prior, operator, drawn),
}
print(f"{trials} trials, per-coordinate squared error to the clean field:")
for name, vals in rows.items():
    mean, se = mean_se(vals)
    print(f"  {name:34s} {mean:.4f} +- {se:.4f}")

print("\none sample trial, cell by cell:")
rng = np.random.default_rng(0)
from htx import degrade, gm_sample  # noqa: E402

y = gm_sample(prior, 1, rng)[0]
pair = degrade(operator, y, rng)
post = linear_gaussian_posterior(prior, operator, pair.measurement)
print("  clean:    ", np.array2string(y, precision=2, suppress_small=True))
print("  coarse:   ", np.array2string(pair.coarse, precision=2, suppress_small=True))
print("  mmse mean:", np.array2string(post.mean(), precision=2, suppress_small=True))
