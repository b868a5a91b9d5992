"""The three noise abstraction levels and their noise parity-check matrices.

Data-qubit noise reuses the code's own check matrix.  Phenomenological noise
stacks one detector layer per round (consecutive readout differences, the
last layer against a perfect data readout) and adds weight-2 measurement
columns, lifting bulk row weights from 6 to 8.  Circuit-level matrices are
produced by external tools and ingested from a small text format.
"""

import os
import tempfile

import numpy as np

from cbdecode import (
    STANDARD_CODES,
    build_bb_code,
    data_qubit_model,
    load_detector_model,
    mat_vec_mod2,
    phenomenological_model,
    sample_chunk,
    save_detector_model,
)

code = build_bb_code(STANDARD_CODES["bb72"])

mx, mz = data_qubit_model(code, p=0.06)
print(f"data-qubit X model: {mx.noise_matrix.rows}x{mx.noise_matrix.cols}, "
      f"priors all {mx.priors[0]:.4f} (= 2p/3), "
      f"{mx.observables.rows} observables")

rounds = 6
ph = phenomenological_model(code, p=0.06, q=0.06, rounds=rounds)
weights = np.array(ph.noise_matrix.row_weights()).reshape(rounds, -1)
print(f"\nphenomenological model, {rounds} rounds: "
      f"{ph.noise_matrix.rows} detectors x {ph.noise_matrix.cols} mechanisms")
print(f"  data columns: {rounds * code.n} at prior 2p/3; "
      f"measurement columns: {(rounds - 1) * code.hz.rows} at prior q, each flipping two detectors")
print(f"  detector row weights per layer: first {set(weights[0].tolist())}, "
      f"bulk {set(weights[1:-1].ravel().tolist())}, last {set(weights[-1].tolist())}")

# sampling shot 0 of seed 3 gives its fired mechanisms; its syndrome and the
# observables it flips are products through the noise and observable matrices
(mechanisms,) = sample_chunk(ph, seed=3, start=0, stop=1)
syndrome = mat_vec_mod2(ph.noise_matrix, mechanisms[0])
flips = mat_vec_mod2(ph.observables, mechanisms[0])
print(f"  sample: {int(mechanisms.sum())} mechanisms fired, "
      f"syndrome weight {int(syndrome.sum())}, "
      f"observables flipped {np.flatnonzero(flips).tolist()}")

# models round-trip through the text format: 'error <p> D... L...' per column
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bb72_phenom.dem")
    save_detector_model(ph, path)
    again = load_detector_model(path)
    print(f"\nwrote and re-read {path}: identical model: {again == ph}")
