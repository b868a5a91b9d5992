"""A desk-scale logical-error-rate sweep with a pseudothreshold estimate.

Runs the BP+CB decoder on the [[72,12,6]] code under data-qubit depolarizing
noise, accumulating 100 logical failures per point, then interpolates the
crossing p = P_L on log-log axes.  Takes well under a minute.
"""

import os
import tempfile

from cbdecode import (
    CBParams,
    ExperimentConfig,
    STANDARD_CODES,
    crossing_estimate,
    run_experiment,
)
from cbdecode.harness import append_csv, result_row

points = []
rows = []
for p in (0.04, 0.05, 0.06, 0.07, 0.08):
    config = ExperimentConfig(
        noise="data-qubit",
        p=p,
        code_spec=STANDARD_CODES["bb72"],
        params=CBParams(max_gr=6, max_br=10, max_tcts=3),
        decoder="bp+cb",
        max_shots=40_000,
        max_failures=100,
        seed=2,
    )
    result = run_experiment(config)
    points.append((p, result.p_l_total))
    rows.append(result_row(config, result))
    print(f"p={p:.2f}: {result.logical_failures}/{result.shots_run} failures, "
          f"P_L={result.p_l_total:.4f}, mean decode {result.decode_mean_us:.0f}us")

crossing = crossing_estimate(points)
print(f"\nestimated pseudothreshold (p = P_L crossing): {crossing:.4f}")

# result rows append to a CSV file, with a header when the file is new
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bb72_sweep.csv")
    append_csv(path, rows)
    print(f"wrote {len(rows)} rows to {path}")
