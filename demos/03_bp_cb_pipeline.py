"""The two-stage pipeline: belief propagation first, closed branches after.

BP returns posterior marginals per mechanism.  When its hard decision already
reproduces the syndrome we are done; otherwise the marginals are converted to
event weights (llr - min(llr) + 1) and the closed-branch stage grows branches
preferring low-weight mechanisms, with the accumulated weight capped per step.
"""

import numpy as np

from cbdecode import (
    BPDecoder,
    CBParams,
    STANDARD_CODES,
    bp_cb_decode,
    build_bb_code,
    data_qubit_model,
    event_weights,
    mat_vec_mod2,
    sample_chunk,
)

code = build_bb_code(STANDARD_CODES["bb72"])
p = 0.07
model, _ = data_qubit_model(code, p)
decoder = BPDecoder(model.noise_matrix, model.priors)
params = CBParams(max_gr=6, max_br=10, max_tcts=3)

# shots 0..1999 of seed 11: one row of fired mechanisms each, one syndrome each
n_shots = 2000
(mechanisms,) = sample_chunk(model, seed=11, start=0, stop=n_shots)
syndromes = mat_vec_mod2(model.noise_matrix, mechanisms)

# a single shot in detail
syndrome = syndromes[4]
result = decoder.decode(syndrome)
print(f"syndrome weight {int(syndrome.sum())}, "
      f"BP converged: {result.converged} after {result.iterations} iterations")
weights = event_weights(result.llrs)
print(f"event weights: min {weights.min():.3f}, max {weights.max():.3f} "
      f"(low weight = likely mechanism)")

# pipeline statistics over the batch, as the harness runs a chunk: BP once
# on all the nonzero syndromes, then CB on each one BP did not solve
bp_solved = cb_solved = declared = 0
nonzero = syndromes[syndromes.any(axis=1)]
for syndrome, res in zip(nonzero, decoder.decode_batch(nonzero)):
    out = bp_cb_decode(syndrome, params, model, bp_result=res)
    if res.converged:
        bp_solved += 1
    elif out.any():
        cb_solved += 1
        assert np.array_equal(mat_vec_mod2(model.noise_matrix, out), syndrome)
    else:
        declared += 1

print(f"\nover {n_shots} shots at p={p}:")
print(f"  BP alone matched the syndrome: {bp_solved}")
print(f"  closed branches rescued:       {cb_solved}")
print(f"  declared failures:             {declared}")
