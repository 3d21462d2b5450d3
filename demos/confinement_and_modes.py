"""Confinement window and Case-mode exponents, from two velocities to eighteen.

Walks through the first half of the pipeline: validate a velocity model,
find the admissible speed window, and solve the dispersion relation whose
roots set the exponential decay rates of the travelling profile.
"""

from pathlib import Path

import numpy as np

from chemowave import (
    admissible_speed_interval,
    build_model,
    dispersion_residual,
    singular_values,
    solve_roots,
)
from chemowave.cli_io import load_config

HERE = Path(__file__).resolve().parent

# --- the two-velocity caricature -------------------------------------------
# With velocities {-1, +1} everything is solvable by hand: the speed ceiling
# is chi_s + chi_n and the single right-side exponent is the midpoint of the
# two singular values.
model = build_model([-1.0, 1.0], [0.5, 0.5], chi_s=0.3, chi_n=0.15)
rates = model.rates
print("two-velocity model")
print(f"  rates: t_mm={rates.t_mm}  t_mp={rates.t_mp}  t_pm={rates.t_pm}  t_pp={rates.t_pp}")

window = admissible_speed_interval(model)
print(f"  speed window: ({window.c_lower:+.3f}, {window.c_upper:.3f})"
      f"   [hand value: chi_s + chi_n = {0.3 + 0.15}]")

c = 0.25
roots = solve_roots(model, c)
lam = roots.positive_roots[0]
hand = 0.5 * (rates.t_pp / (1 - c) + rates.t_pm / (-1 - c))
print(f"  right exponent at c={c}: {lam:.15f}  (hand: {hand:.15f})")

# --- the 18-velocity quadrature set ----------------------------------------
cfg, _ = load_config(HERE.parent / "configs" / "sec4_1.ini")
model = cfg.build_model()
window = admissible_speed_interval(model)
print(f"\nquadrature model: {model.n_active} active velocities")
print(f"  speed window: ({window.c_lower:+.5f}, {window.c_upper:.5f})")
print(f"  continuity intervals of the scan range: {window.admissible_intervals}")

c = 0.1
roots = solve_roots(model, c)
print(f"\ndispersion roots at c={c}: {roots.negative_roots.size} negative, "
      f"{roots.positive_roots.size} positive")
print("  slowest decay rates: left %.5f, right %.5f"
      % (roots.slowest_negative, roots.slowest_positive))

# every root interlaces with the singular values of its side and zeroes the
# dispersion sum to machine accuracy
poles = np.sort(singular_values(model, c, "right")[model.velocities > c])
print("  right-side interlacing (root < pole < root < ...):")
for lam, pole in zip(roots.positive_roots, poles):
    res = dispersion_residual(model, c, float(lam), "right")
    print(f"    lambda={lam:12.6f} < pole={pole:12.6f}   residual={res:+.2e}")
