"""Time-dependent runs: a stable travelling wave versus a splitting cloud.

Integrates the full coupled system from a left-concentrated block for the
two-wave and the no-wave case studies (at reduced resolution for a quick
demonstration; the acceptance suite runs 2048 cells) and measures the front.
"""

from pathlib import Path

import numpy as np

from chemowave import SimConfig, refine_roots, run, scan, total_mass
from chemowave.cli_io import load_config

HERE = Path(__file__).resolve().parent
CELLS = 512
T_END = 100.0

for label, config_name in (("two", "sec4_2.ini"), ("three", "sec4_3.ini")):
    cfg, _h = load_config(HERE.parent / "configs" / config_name)
    model = cfg.build_model()

    curve = scan(model, cfg.chem, 16)
    roots = refine_roots(curve, model, cfg.chem)
    print(f"case {label}: static analysis finds {len(roots)} admissible speed(s) "
          + (f"(fastest {max(roots):.4f})" if roots else ""))

    config = SimConfig(
        model=model,
        params=cfg.chem,
        domain_length=cfg.sim.domain_length,
        cells=CELLS,
        t_end=T_END,
    )
    state, diagnostics = run(config, lambda snapshot: None)  # the final state is all it reads

    drift = abs(total_mass(config, state) - 1.0)
    print(f"  integrated to t={state.t:.0f} on {CELLS} cells; mass drift {drift:.2e}")
    print(f"  front speed {diagnostics.fitted_speed:.4f} "
          f"(fit rms {diagnostics.fit_residual:.2e}); "
          f"{diagnostics.n_components} density component(s) at final time")

    # a coarse picture of where the mass sits at the end
    rho = model.weights @ state.f
    bins = np.array_split(np.arange(rho.size), 10)
    profile = " ".join(f"{np.sum(rho[b]) * config.dx:.2f}" for b in bins)
    print(f"  mass per tenth of the channel: {profile}")
    if roots:
        rel = abs(diagnostics.fitted_speed - max(roots)) / max(roots)
        print(f"  measured speed sits {100 * rel:.1f}% from the fastest static root\n")
    else:
        print("  no stable wave: the population advances but sheds units as it goes\n")
