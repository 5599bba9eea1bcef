"""Denoise a noisy two-community feature with both filters across mixing levels.

Two equal blocks of nodes carry feature values -1 and +1 plus unit Gaussian
noise. The graph's mixing is controlled by ln(p/q): strongly negative means
nodes connect mostly across blocks (heterophilous), strongly positive means
within blocks (homophilous).

The fixed smoothing filter applies K powers of the self-loop operator
D~^{-1/2} (A + I) D~^{-1/2}. On a near-bipartite graph of mean degree d each
step scales the block indicator by (1 - d) / (1 + d). At K=2 it therefore
keeps the block signs and shrinks the block means toward zero by
((d - 1) / (d + 1))^2 ~ 0.67 at d=10: below, its means at ln(p/q) = -5 sit near
-0.65/+0.65 and its rms is well under raw's. At odd K the factor is negative
and the smoothed block means swap sign. On the homophilous side the means stay
near -1/+1. The adaptive filter fits its polynomial coefficients per feature,
can pick the negative one, and keeps the means near -1/+1 on both ends.

Run with:  python demos/02_synthetic_denoising.py
"""

import numpy as np

from asgc import SbmConfig, denoise_trial, run_sweep

# One heterophilous graph in detail first.
cfg = SbmConfig(n_per_block=500, expected_degree=10.0, log_ratio=-5.0, seed=7)
outcome = denoise_trial(cfg, k_hops=2)
print(f"single graph at ln(p/q) = {cfg.log_ratio:+.0f}:")
print(f"  {'method':6s} {'rms':>7s} {'sign err':>9s} {'block means':>18s}")
for method in ("raw", "sgc", "asgc"):
    o = outcome[method]
    print(f"  {method:6s} {o.rms_deviation:7.3f} {o.sign_error:9.4f} "
          f"({o.minus_mean:+.2f}, {o.plus_mean:+.2f})")
print("the adaptive filter keeps the block means near -1/+1 on this "
      "near-bipartite graph.\n")

# Now the full sweep (a coarse grid to keep the demo quick; the CLI `synth`
# subcommand runs the dense 21-point grid and writes CSV + SVG).
grid = np.linspace(-5, 5, 11)
reports = run_sweep(grid, trials=3, k_hops=2, seed=0)
print("sweep over ln(p/q), 3 trials each, K=2:")
print(f"  {'ln(p/q)':>8s} | {'rms raw':>8s} {'rms sgc':>8s} {'rms asgc':>9s} | "
      f"{'sign raw':>8s} {'sign sgc':>8s} {'sign asgc':>9s}")
for r in reports:
    rms, sign = r.rms_deviation, r.sign_error
    print(f"  {r.log_ratio:8.1f} | {rms['raw']:8.3f} {rms['sgc']:8.3f} {rms['asgc']:9.3f} | "
          f"{sign['raw']:8.3f} {sign['sgc']:8.3f} {sign['asgc']:9.3f}")

print("\nreading the table:")
print(" * the adaptive filter's error is roughly symmetric in ln(p/q)")
print(" * smoothing shines on the homophilous (positive) side")
print(" * near zero the graph is uninformative and neither filter beats raw on")
print("   sign error (smoothing's rms still dips below raw's there)")
