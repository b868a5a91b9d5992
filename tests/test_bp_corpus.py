"""Golden corpus for the sum-product decoder.

Fixed syndromes go through `BPDecoder.decode` on three matrices: bb72
data-qubit noise, bb72 phenomenological noise (padded check and variable
slots: row weights 7 and 8, column weights 2 and 3), and a seeded irregular
matrix with a column of weight at least 9, a weight-1 row and an empty row
and column, run for a fixed 40 iterations.  The sha256 of every result's
`llrs`, `marginals` and `hard_decision` bytes, its iteration count and its
`converged` flag is pinned, together with the total iteration count and the
number of converged results, so any change in a float operation or its order
shows up here.  A declared change of decoder behaviour regenerates the
constants.
"""

import hashlib

import numpy as np
import pytest

from cbdecode.bp import BPDecoder
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2
from cbdecode.noise import (
    data_qubit_model,
    phenomenological_model,
    sample_depolarizing,
    sample_shot,
    shot_rng,
)

GOLDEN = {
    "data": {
        "sha256": "7d7da6103ea553d01c58bcd0150a3d12859efac6a59dd35fe5c3521a448f0c17",
        "iterations": 1012,
        "converged": 287,
    },
    "phenom": {
        "sha256": "9899cda64c238959883694f0b547c12e81056c5807fae6a0183a879fedb77166",
        "iterations": 648,
        "converged": 37,
    },
    "irregular": {
        "sha256": "dc12d3b7a6e2634ce304bc0de48554abdae07598ebf6c19eab9c0b5017e8cead",
        "iterations": 1200,
        "converged": 1,
    },
}


def irregular_matrix() -> BinaryMatrix:
    """14x20 seeded random matrix with the awkward shapes BP must pad."""
    rng = np.random.default_rng(21)
    a = (rng.random((14, 20)) < 0.25).astype(np.uint8)
    a[:11, 3] = 1  # column 3 has weight 11
    a[11, :] = 0
    a[11, 7] = 1  # row 11 has weight 1
    a[12, :] = 0  # row 12 is empty
    a[:, 19] = 0  # column 19 is empty
    return BinaryMatrix.from_dense(a)


def digest_results(decoder, syndromes, **kwargs):
    digest = hashlib.sha256()
    iterations = converged = 0
    for s in syndromes:
        res = decoder.decode(s, **kwargs)
        for arr in (res.llrs, res.marginals, res.hard_decision):
            digest.update(arr.tobytes())
        digest.update(f"{res.iterations},{int(res.converged)};".encode())
        iterations += res.iterations
        converged += int(res.converged)
    return {"sha256": digest.hexdigest(), "iterations": iterations, "converged": converged}


def data_corpus(bb72):
    """300 bb72 data-qubit X syndromes at p=0.06, default schedule."""
    model = data_qubit_model(bb72, 0.06)[0]
    syndromes = [
        mat_vec_mod2(model.noise_matrix, sample_depolarizing(bb72.n, 0.06, shot_rng(13, i)).x_part)
        for i in range(300)
    ]
    return digest_results(BPDecoder(model.noise_matrix, model.priors), syndromes)


def phenom_corpus(bb72):
    """50 phenomenological syndromes, r=3, p=q=0.06, default schedule."""
    model = phenomenological_model(bb72, 0.06, 0.06, 3)
    syndromes = [sample_shot(model, shot_rng(14, i)).syndrome for i in range(50)]
    return digest_results(BPDecoder(model.noise_matrix, model.priors), syndromes)


def irregular_corpus(bb72):
    """30 random syndromes on the irregular matrix, 40 iterations, no early stop."""
    m = irregular_matrix()
    rng = np.random.default_rng(22)
    priors = rng.uniform(0.01, 0.45, size=m.cols)
    syndromes = [rng.integers(0, 2, size=m.rows).astype(np.uint8) for _ in range(30)]
    return digest_results(
        BPDecoder(m, priors), syndromes, max_iters=40, stop_on_match=False
    )


def test_irregular_matrix_shapes():
    m = irregular_matrix()
    assert max(m.col_weights()) >= 9
    assert 1 in m.row_weights()
    assert 0 in m.row_weights() and 0 in m.col_weights()


@pytest.mark.parametrize(
    "corpus, name",
    [(data_corpus, "data"), (phenom_corpus, "phenom"), (irregular_corpus, "irregular")],
    ids=["data", "phenom", "irregular"],
)
def test_golden_corpus(bb72, corpus, name):
    assert corpus(bb72) == GOLDEN[name]
