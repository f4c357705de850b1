"""The start-guided baseline: noise the coarse sample, then denoise unguided.

Guidance strength is controlled solely by how much noise is added at the
start.  Little noise keeps the degraded sample almost verbatim; lots of noise
forgets it entirely.  The weighted-correction sampler avoids this one-knob
tradeoff by steering throughout the trajectory instead.
"""

from htx import NoiseSchedule, SamplerConfig, shrink
from htx.experiments import draw_trials, mean_se, restore_trials, sdedit_trials
from htx.oracle import GaussianMixture
from htx.schedules import WeightSchedule

import numpy as np

schedule = NoiseSchedule.vp()
gm = GaussianMixture(np.array([0.5, 0.5]),
                     np.array([[-3.0, 0.0], [3.0, 0.0]]),
                     np.stack([np.eye(2), np.eye(2)]))
op = shrink(0.5, 2, noise_std=0.1)
cfg = SamplerConfig(steps=1000, start=schedule.t_max, end=schedule.t_min, seed=23)
drawn = draw_trials(gm, op, 100, 23)  # every arm below starts from these trials

print("t0      mse_to_coarse     mse_to_y")
for t0 in (0.2, 0.5, 0.8):
    columns, _ = sdedit_trials(gm, schedule, cfg, drawn, t0)
    mc, se_c = mean_se(columns["mse_to_coarse"])
    my, se_y = mean_se(columns["mse_to_y"])
    print(f"{t0:.1f}    {mc:7.3f} +- {se_c:.3f}   {my:7.3f} +- {se_y:.3f}")

guided = restore_trials(gm, schedule, cfg, drawn,
                        WeightSchedule("power_of_sigma", exponent=5.0))
my, se_y = mean_se(guided["mse_to_y"])
mc, se_c = mean_se(guided["mse_to_coarse"])
print(f"\nweighted correction (a = 5): mse_to_coarse {mc:.3f} +- {se_c:.3f}, "
      f"mse_to_y {my:.3f} +- {se_y:.3f}")
