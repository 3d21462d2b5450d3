"""The three shapes of the matching function: one root, two roots, none.

Scans Upsilon(c) = dS/dz(0) over the admissible range for the three shipped
case studies and classifies what it finds.  Writes the sampled curves and
refined speeds as CSV next to this script (upsilon_*.csv / speeds_*.csv).
"""

from pathlib import Path

from chemowave import refine_roots, scan, verify_root
from chemowave.cli_io import emit_speeds_summary, emit_upsilon_csv, load_config

HERE = Path(__file__).resolve().parent
SAMPLES = 24  # enough to classify; the acceptance suite uses 64

for label, config_name in (("one", "sec4_1.ini"), ("two", "sec4_2.ini"), ("three", "sec4_3.ini")):
    cfg, config_hash = load_config(HERE.parent / "configs" / config_name)
    model = cfg.build_model()
    curve = scan(model, cfg.chem, SAMPLES)
    roots = refine_roots(curve, model, cfg.chem)

    print(f"case {label} ({config_name}): {len(curve.samples)} samples over "
          f"{len(curve.intervals)} continuity intervals")
    for left, right in zip(curve.intervals, curve.intervals[1:]):
        if left.hi == right.lo:  # a velocity node between two sampled intervals
            print(f"  jump at node v={left.hi}: {left.upsilon[-1]:+.4e} -> {right.upsilon[0]:+.4e}")
    if roots:
        for c in roots:
            check = verify_root(model, cfg.chem, c)
            print(f"  admissible wave speed c={c:.6f} "
                  f"(S maximum at z={check.maximum_location:+.1e}, "
                  f"unimodal: {check.slope_sign_changes == 1})")
    else:
        top = max(y for _c, y in curve.samples)
        print(f"  no admissible root; the curve stays below zero (max {top:+.3e})")

    emit_upsilon_csv(curve, HERE / f"upsilon_{label}.csv", config_hash)
    emit_speeds_summary(roots, HERE / f"speeds_{label}.csv", curve.root_residuals, config_hash)
    print(f"  wrote upsilon_{label}.csv and speeds_{label}.csv\n")
