"""Golden corpus for the closed-branch decoder on small random matrices.

The bb72 corpora (`tests/test_cb_corpus.py`) never reach the search's
budget and rejection rules: a destroy set over max_br, a dismantling that
would turn an evenly-touched check violated, a seed over the budget.  Small
random matrices (3-11 rows, 4-19 columns, column weight 1-4) with max_br
1-4 reach all of them.  Each case decodes once in plain mode (`cb_decode`)
and once in weighted mode (`run_schedule` with random mechanism weights and
a step budget that may lie below the heaviest seed).  The sha256 of the
outputs and every `DecodeStats` field are pinned per mode; deleting any one
of those rules, or the one that drops a dead path, changes them.  A
declared change of decoder behaviour regenerates the constants.
"""

import hashlib

import numpy as np
import pytest

from cbdecode.cb import CBParams, DecodeStats, cb_decode, run_schedule
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2

CASES = 3000

GOLDEN = {
    "plain": {
        "sha256": "e21cc6cff7bec65e745fc5567bd94efe78a623e015160696e1e8d4a805b50f4e",
        "stats": {
            "max_spawned": 4,
            "max_growths": 5,
            "branches_closed": 7114,
            "instances_rejected": 2040,
            "dismantled": 825,
        },
    },
    "weighted": {
        "sha256": "0fa1835adedfb1d67b69935256fb4501c7123116d82a60a62adc10772b277ece",
        "stats": {
            "max_spawned": 4,
            "max_growths": 5,
            "branches_closed": 9103,
            "instances_rejected": 1056,
            "dismantled": 1147,
        },
    },
}


def random_case(rng: np.random.Generator):
    """A small matrix, a syndrome of a random error on it, and budgets."""
    rows = int(rng.integers(3, 12))
    cols = int(rng.integers(4, 20))
    entries = []
    for c in range(cols):
        weight = int(rng.integers(1, min(4, rows) + 1))
        entries += [(int(r), c) for r in rng.choice(rows, size=weight, replace=False)]
    m = BinaryMatrix(rows, cols, entries)
    error = (rng.random(cols) < rng.uniform(0.1, 0.4)).astype(np.uint8)
    params = CBParams(int(rng.integers(2, 7)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    return m, mat_vec_mod2(m, error), params


def decode_corpus(mode: str, cases: int = CASES):
    rng = np.random.default_rng(2024)
    stats = DecodeStats()
    digest = hashlib.sha256()
    for _ in range(cases):
        m, syndrome, params = random_case(rng)
        weights = rng.uniform(1.0, 4.0, m.cols)
        scale = float(rng.uniform(0.3, 1.0)) * float(weights.max())
        if mode == "plain":
            out = cb_decode(syndrome, params, m, stats=stats)
        else:
            out = run_schedule(
                syndrome, params, m, range(1, params.max_gr + 1),
                lambda step: step * scale, event_weights=weights, stats=stats,
            )
        digest.update(out.tobytes())
    fields = {
        "max_spawned": stats.max_spawned,
        "max_growths": stats.max_growths,
        "branches_closed": stats.branches_closed,
        "instances_rejected": stats.instances_rejected,
        "dismantled": stats.dismantled,
    }
    return digest.hexdigest(), fields


@pytest.mark.parametrize("mode", ["plain", "weighted"])
def test_golden_fuzz_corpus(mode):
    sha, stats = decode_corpus(mode)
    assert stats == GOLDEN[mode]["stats"]
    assert sha == GOLDEN[mode]["sha256"]
