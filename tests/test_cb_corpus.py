"""Golden corpus for the closed-branch decoder.

Fixed syndromes go through `cb_decode` (bb72 data-qubit noise) and
`bp_cb_decode` (bb72 phenomenological noise), one `DecodeStats` per decoder.
The sha256 of the concatenated outputs and every `DecodeStats` field are
pinned, so a change to the growth engine that alters any decision, any
budget count or the order in which weights are summed shows up here.  A
declared change of decoder behaviour regenerates the constants.
"""

import hashlib

import numpy as np
import pytest

from cbdecode.bp import BPDecoder, bp_cb_decode
from cbdecode.cb import CBParams, DecodeStats, cb_decode
from cbdecode.gf2 import mat_vec_mod2
from cbdecode.noise import phenomenological_model, sample_chunk

DATA_SHOTS = 300
PHENOM_SHOTS = 100

GOLDEN_CB = {
    "sha256": "b42839630b5e574342525024326f70cd8b85fb8fc8679f65c2eb518aab284105",
    "stats": {
        "max_spawned": 10,
        "max_growths": 4,
        "branches_closed": 827,
        "instances_rejected": 159,
        "dismantled": 113,
    },
}

GOLDEN_BPCB = {
    "sha256": "d4bb9a461a81bdc7206c80d2f65b7d6b8140f05b6a4893ec5067dfdefc2b8b23",
    "stats": {
        "max_spawned": 36,
        "max_growths": 6,
        "branches_closed": 198,
        "instances_rejected": 9,
        "dismantled": 72,
    },
}


def stats_fields(stats: DecodeStats) -> dict:
    return {
        "max_spawned": stats.max_spawned,
        "max_growths": stats.max_growths,
        "branches_closed": stats.branches_closed,
        "instances_rejected": stats.instances_rejected,
        "dismantled": stats.dismantled,
    }


def cb_corpus(bb72):
    """Data-qubit X errors at p=0.06 through plain CB."""
    params = CBParams(6, 10, 3)
    stats = DecodeStats()
    digest = hashlib.sha256()
    x_parts, _ = sample_chunk((bb72.n, 0.06), 11, 0, DATA_SHOTS)
    for syndrome in mat_vec_mod2(bb72.hz, x_parts):
        digest.update(cb_decode(syndrome, params, bb72.hz, stats=stats).tobytes())
    return digest.hexdigest(), stats_fields(stats)


def bpcb_corpus(bb72):
    """Phenomenological noise (r=3, p=q=0.04) through BP+CB."""
    model = phenomenological_model(bb72, 0.04, 0.04, 3)
    decoder = BPDecoder(model.noise_matrix, model.priors)
    params = CBParams(6, 36, 3)
    stats = DecodeStats()
    digest = hashlib.sha256()
    (mechanisms,) = sample_chunk(model, 12, 0, PHENOM_SHOTS)
    for syndrome in mat_vec_mod2(model.noise_matrix, mechanisms):
        out = bp_cb_decode(syndrome, params, model, decoder=decoder, stats=stats)
        digest.update(out.tobytes())
    return digest.hexdigest(), stats_fields(stats)


@pytest.mark.parametrize(
    "corpus, golden", [(cb_corpus, GOLDEN_CB), (bpcb_corpus, GOLDEN_BPCB)], ids=["cb", "bpcb"]
)
def test_golden_corpus(bb72, corpus, golden):
    sha, stats = corpus(bb72)
    assert stats == golden["stats"]
    assert sha == golden["sha256"]
