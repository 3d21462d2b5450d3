"""Anatomy of one stationary profile: masses, flux, tails and overshoot.

Builds the confined density at a fixed admissible speed, checks its exact
structural identities, and shows the counter-intuitive overshoot of the
leftward velocity components under strong attractant sensitivity.
"""

from pathlib import Path

import numpy as np

from chemowave import (
    build_model,
    duhamel_f,
    evaluate_f_matrix,
    evaluate_I,
    expand_half_set,
    solve_modes,
    verification_grid,
)
from chemowave.cli_io import load_config

HERE = Path(__file__).resolve().parent

cfg, _ = load_config(HERE.parent / "configs" / "sec4_1.ini")
model = cfg.build_model()
c = 0.1

profile = solve_modes(model, c)
print(f"profile at c={c}")
print(f"  mass split: left {profile.left_mass:.6f} + right {profile.right_mass:.6f} = "
      f"{profile.left_mass + profile.right_mass:.12f}")

grid = verification_grid(profile)
rho = np.asarray(profile.rho_modes()(grid))
flux = evaluate_f_matrix(profile, [-1.0, 0.0, 2.0]) @ (model.weights * (model.velocities - c))
print(f"  stationary flux at z=-1,0,2: {flux}")
print(f"  density peaks at z={grid[np.argmax(rho)]:+.2e} "
      f"(increasing left of 0: {bool(np.all(np.diff(rho[grid < 0]) > 0))}, "
      f"decreasing right: {bool(np.all(np.diff(rho[grid >= 0]) < 0))})")

# the integral identity route (characteristics) reproduces the mode sum
z_probe, k_probe = 1.5, 3
mode_sum = evaluate_f_matrix(profile, z_probe)[0, k_probe]
characteristic = duhamel_f(profile, z_probe, k_probe)
print(f"  mode sum vs characteristic integral at (z={z_probe}, k={k_probe}): "
      f"{mode_sum:.12e} vs {characteristic:.12e}")

# far-field behaviour is carried by the slowest right mode
lam_k = profile.roots.slowest_positive
z_far = 30.0 / lam_k
I_far = evaluate_I(profile, z_far)
print(f"  I({z_far:.1f}) = {I_far:.3e} ~ b_K exp(-lambda_K z) = "
      f"{profile.b[0] * np.exp(-lam_k * z_far):.3e}")

# --- overshoot under strong attractant sensitivity -------------------------
v, w = expand_half_set(list(cfg.velocities), list(cfg.weights))
strong = build_model(v, w, chi_s=0.48, chi_n=0.2)
profile = solve_modes(strong, 0.25)
grid = verification_grid(profile)
f = evaluate_f_matrix(profile, grid)
print("\novershoot at chi_s=0.48, chi_n=0.2, c=0.25:")
for k in range(strong.n_active // 2):
    z_max = grid[int(np.argmax(f[:, k]))]
    marker = "  <-- peaks left of the origin" if z_max < -1e-3 else ""
    print(f"  v={strong.velocities[k]:+.4f}: argmax f = {z_max:+.4f}{marker}")
rho = np.asarray(profile.rho_modes()(grid))
print(f"  ... while rho itself still peaks at z={grid[np.argmax(rho)]:+.2e}")
