"""Noise schedules and guidance weights at a glance.

Prints the (alpha_t, sigma_t) pair for both schedule families, checks the
variance-preserving identity on the fly, and charts the weight families that
temper guidance as sampling denoises.
"""

import numpy as np

from htx import NoiseSchedule, WeightSchedule
from htx.report import svg_line_chart

vp = NoiseSchedule.vp()
otfm = NoiseSchedule.otfm()

print("t        vp alpha   vp sigma   vp a^2+s^2      otfm alpha  otfm sigma")
for t in (0.001, 0.1, 0.25, 0.5, 0.75, 0.999):
    a, s = vp.alpha_sigma(t)
    ao, so = otfm.alpha_sigma(t)
    print(f"{t:6.3f}   {a:8.5f}   {s:8.5f}   {a * a + s * s:.12f}   "
          f"{ao:9.5f}   {so:9.5f}")

print("\nvp drift and squared diffusion at t = 0.5:",
      f"f(1, t) = {vp.drift_f(1.0, 0.5):.4f},  g^2 = {vp.diffusion_g2(0.5):.4f}",
      f"(beta(t) = {vp.beta(0.5):.4f})")
print("otfm g^2 at t = 0.5:", otfm.diffusion_g2(0.5), "(= 2t / (1 - t))")

ts = np.linspace(vp.t_min, vp.t_max, 41)
_, sigmas = vp.alpha_sigma(ts)
ticks = np.round(ts, 3).tolist()
series = {}
for a in (1, 3, 5, 9):
    ws = WeightSchedule("power_of_sigma", exponent=float(a))
    series[f"sigma^{a}"] = (ticks, [float(ws.weight(s, t)) for s, t in zip(sigmas, ts)])
path = svg_line_chart("demo_weights.svg", ticks, series,
                      xlabel="t", ylabel="lambda", title="guidance weight families")
print(f"\nwrote {path}: the larger the exponent, the earlier guidance fades.")
