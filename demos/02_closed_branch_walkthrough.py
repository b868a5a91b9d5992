"""One decode, step by step: from a sampled error to a matching closed tree.

The closed-branch decoder explains the syndrome with closed branches: sets of
error mechanisms whose oddly-touched checks are exactly the violated ones.
Mechanisms with every adjacent check violated close on their own; everything
else is grown from a seed mechanism through its trivial checks until the
branch closes, separations and loops included.
"""

import numpy as np

from cbdecode import (
    CBParams,
    Cluster,
    DecodeStats,
    STANDARD_CODES,
    build_bb_code,
    cb_decode,
    mat_vec_mod2,
    non_dest_branch_growth,
    weight_1_errors,
)

code = build_bb_code(STANDARD_CODES["bb72"])
m = code.hz  # X errors are detected by the Z checks

rng = np.random.default_rng(7)
error = (rng.random(72) < 0.06).astype(np.uint8)
syndrome = mat_vec_mod2(m, error)
print(f"sampled X error on qubits {np.flatnonzero(error).tolist()}")
print(f"syndrome weight {int(syndrome.sum())}: checks {np.flatnonzero(syndrome).tolist()}")

params = CBParams(max_gr=6, max_br=10, max_tcts=3)

# a cluster holds one decoding problem: the matrix and the syndrome it explains
cluster = Cluster(m, syndrome)

# stage 1: isolated mechanisms whose checks are all violated close immediately
weight_1_errors(cluster)
closed = [sorted(b.mechanisms) for b in cluster.branches()]
print(f"\nweight-1 sweep closed {len(closed)} branches: {closed}")

# stage 2: grow seeds with 1, 2, then 3 trivial checks (tcts) into closed
# branches, here at the last growth budget of the schedule
for tcts in range(1, params.max_tcts + 1):
    seen = len(cluster.branches())
    non_dest_branch_growth(tcts, cluster, float(params.max_gr), params)
    closed = [sorted(b.mechanisms) for b in cluster.branches()[seen:]]
    print(f"tcts={tcts} pass closed {len(closed)} branches: {closed}")
print(f"cluster explains the syndrome: {cluster.eff == 0}")

# the full schedule: growth budgets 2..max_gr, non-destructive then destructive
stats = DecodeStats()
recovered = cb_decode(syndrome, params, m, stats=stats)
print(f"\nrecovered error on qubits {np.flatnonzero(recovered).tolist()}")
print(f"syndrome reproduced: {np.array_equal(mat_vec_mod2(m, recovered), syndrome)}")
print(f"growth stats: {stats.branches_closed} branches closed, "
      f"max spawned {stats.max_spawned} (cap {params.max_br}), "
      f"max growths {stats.max_growths} (cap {params.max_gr}), "
      f"{stats.dismantled} dismantled destructively")

residual = error ^ recovered
obs = np.array(code.logical_z).astype(np.uint32)
print(f"logical observables flipped by the residual: {bool(((obs @ residual) & 1).any())}")
