"""The exact drift correction pins every trajectory to its target.

Augmenting the reverse dynamics with the exact endpoint-conditioned correction
turns sampling into a bridge: no matter where a trajectory starts, it lands on
the chosen target.  The flipped-sign variant shows the guarantee is not an
accident of scale.
"""

import numpy as np

from htx import (GaussianMixture, NoiseSchedule, SamplerConfig, exact_h,
                 h_guided_drift, identity_operator, mixture_score_model, sample_ode)
from htx.errors import DivergenceError
from htx.experiments import draw_trials

schedule = NoiseSchedule.vp(t_min=1e-4)
gm = GaussianMixture(np.array([0.5, 0.5]),
                     np.array([[-3.0, 0.0], [3.0, 0.0]]),
                     np.stack([np.eye(2), np.eye(2)]))
model = mixture_score_model(gm, schedule)

n = 12
# trial i draws its target, then its start, from the stream trial_rng(7, i)
trials = draw_trials(gm, identity_operator(2), n, seed=7)
targets, starts = trials.fine, trials.z

drift = h_guided_drift(model, lambda x, t: exact_h(x, targets, gm, schedule, t),
                       schedule)
cfg = SamplerConfig(steps=2000, start=schedule.t_max, end=schedule.t_min, seed=7)
traj = sample_ode(drift, cfg, x_start=starts)

print("start point            target                 endpoint               error")
for i in range(n):
    err = np.linalg.norm(traj.endpoint[i] - targets[i])
    print(f"({starts[i][0]:+6.2f}, {starts[i][1]:+6.2f})    "
          f"({targets[i][0]:+6.3f}, {targets[i][1]:+6.3f})    "
          f"({traj.endpoint[i][0]:+6.3f}, {traj.endpoint[i][1]:+6.3f})    {err:.4f}")

flipped = h_guided_drift(model, lambda x, t: -exact_h(x, targets, gm, schedule, t),
                         schedule)
try:
    bad = sample_ode(flipped, cfg, x_start=starts)
    worst = np.linalg.norm(bad.endpoint - targets, axis=1).max()
    print(f"\nflipped correction sign: worst endpoint error {worst:.1f} "
          "(guidance now repels the target)")
except DivergenceError as exc:
    print(f"\nflipped correction sign: state diverged at step {exc.step}")
