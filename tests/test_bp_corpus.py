"""Golden corpus for the sum-product decoder.

Fixed syndromes go through `BPDecoder.decode` on three matrices: bb72
data-qubit noise, bb72 phenomenological noise (padded check and variable
slots: row weights 7 and 8, column weights 2 and 3), and a seeded irregular
matrix with a column of weight at least 9, a weight-1 row and an empty row
and column, run for a fixed 40 iterations.  The sha256 of every result's
`llrs`, `marginals` and `hard_decision` bytes, its iteration count and its
`converged` flag is pinned, together with the total iteration count and the
number of converged results, so any change in a float operation or its order
shows up here.  `GOLDEN_DECISIONS` pins the same runs' hard decisions,
iteration counts and `converged` flags alone, which hold on every SIMD path
numpy dispatches to.  `GOLDEN_SHORT` pins the same digests for short schedules
(`max_iters` 0, 1, 2 and 7, with and without `stop_on_match`), so that the
first iterations are checked on their own, on those three matrices and on two
edge matrices: one whose rows all have weight 1, and one with no rows.  A
declared change of decoder behaviour regenerates the constants.

`BPDecoder.decode_batch` is pinned to the same constants: each problem's
syndromes go through it as one batch, on the default schedule and on every
short schedule with `stop_on_match`, the only stopping rule it has.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdecode import bp
from cbdecode.bp import BPDecoder
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2
from cbdecode.noise import data_qubit_model, phenomenological_model, sample_chunk

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


GOLDEN_SHORT = {
    "data-0-stop": {
        "sha256": "463e8023c877d48d6e64cebbb1a50c8bc9cd7ce3172d7ec8f90947225973b654",
        "iterations": 0,
        "converged": 18,
    },
    "data-0-nostop": {
        "sha256": "16c56a2597f229529d830e6cadd6745c995b3f0ac733462252c0bb6d9ae197f3",
        "iterations": 0,
        "converged": 0,
    },
    "data-1-stop": {
        "sha256": "8a889b9e1733cb6394a8c56c21836b3fa8dd58bc14b905c044b273b5c444b1a8",
        "iterations": 282,
        "converged": 154,
    },
    "data-1-nostop": {
        "sha256": "56d8d52863381a3345876dae02fbdcabb026bb024a767db44e8341e196f0fe17",
        "iterations": 300,
        "converged": 154,
    },
    "data-2-stop": {
        "sha256": "b69055fda0c1159b6b9609fdfc8492b8245a5a2e52f5f20f40adb7e763080281",
        "iterations": 428,
        "converged": 227,
    },
    "data-2-nostop": {
        "sha256": "4a740918f08157263ae68f6fbee45f37bb00b08176d5280860f4b34a53dba6cc",
        "iterations": 600,
        "converged": 227,
    },
    "data-7-stop": {
        "sha256": "4dd6ba76c6bd93f744c10829fa1e0c54264328843aecdcf9223200988b3add33",
        "iterations": 627,
        "converged": 275,
    },
    "data-7-nostop": {
        "sha256": "47bb685a6b839087f035c4c56c069042e266071672001b06df3b1d4a3a954ccc",
        "iterations": 2100,
        "converged": 275,
    },
    "phenom-0-stop": {
        "sha256": "7a09c23765a5c403289485053bb8560cf6d4092c4ae009b81ac9309017ac4f7e",
        "iterations": 0,
        "converged": 0,
    },
    "phenom-0-nostop": {
        "sha256": "7a09c23765a5c403289485053bb8560cf6d4092c4ae009b81ac9309017ac4f7e",
        "iterations": 0,
        "converged": 0,
    },
    "phenom-1-stop": {
        "sha256": "621b5304cd29a2b6f7ea308bffa30e041631845f6c51b7ac9c29d89efcd8e67d",
        "iterations": 50,
        "converged": 0,
    },
    "phenom-1-nostop": {
        "sha256": "621b5304cd29a2b6f7ea308bffa30e041631845f6c51b7ac9c29d89efcd8e67d",
        "iterations": 50,
        "converged": 0,
    },
    "phenom-2-stop": {
        "sha256": "45ee8841db00ae1e6f4a0cf168cf1799c12a513af8f41261aaa563fcb8aa1a60",
        "iterations": 100,
        "converged": 3,
    },
    "phenom-2-nostop": {
        "sha256": "45ee8841db00ae1e6f4a0cf168cf1799c12a513af8f41261aaa563fcb8aa1a60",
        "iterations": 100,
        "converged": 3,
    },
    "phenom-7-stop": {
        "sha256": "d315faa9929138a0e13b93ecac17d17ea97082fbe6c63149217408a4d206a72e",
        "iterations": 284,
        "converged": 25,
    },
    "phenom-7-nostop": {
        "sha256": "61965dda3f65f3fe5b67ddf65a5a8555c339b9a2fd8b06e7fec58b5a7942044c",
        "iterations": 350,
        "converged": 25,
    },
    "irregular-0-stop": {
        "sha256": "fcf50810926df402e387516ecbc6c884726b2a0087fe77c298ec2dba85fc1f39",
        "iterations": 0,
        "converged": 0,
    },
    "irregular-0-nostop": {
        "sha256": "fcf50810926df402e387516ecbc6c884726b2a0087fe77c298ec2dba85fc1f39",
        "iterations": 0,
        "converged": 0,
    },
    "irregular-1-stop": {
        "sha256": "cd59798d013169942a30693b6ce7293c0dc8ddd5a183987bf792ccc323982ccb",
        "iterations": 30,
        "converged": 0,
    },
    "irregular-1-nostop": {
        "sha256": "cd59798d013169942a30693b6ce7293c0dc8ddd5a183987bf792ccc323982ccb",
        "iterations": 30,
        "converged": 0,
    },
    "irregular-2-stop": {
        "sha256": "bda3d8d946cfbfd960bcf2ebbcf3547bd22884bdb68bdf949abdbe7d8445bae3",
        "iterations": 60,
        "converged": 0,
    },
    "irregular-2-nostop": {
        "sha256": "bda3d8d946cfbfd960bcf2ebbcf3547bd22884bdb68bdf949abdbe7d8445bae3",
        "iterations": 60,
        "converged": 0,
    },
    "irregular-7-stop": {
        "sha256": "e28557b041ad25af9fbfebeca3522b0669a7d60be47a35bc00a93e15b1005006",
        "iterations": 210,
        "converged": 1,
    },
    "irregular-7-nostop": {
        "sha256": "e28557b041ad25af9fbfebeca3522b0669a7d60be47a35bc00a93e15b1005006",
        "iterations": 210,
        "converged": 1,
    },
    "weight-1-rows-0-stop": {
        "sha256": "b1068ff9f79967744ab7f09b2e6832644eb2a09b8e715ff157de2994831c568d",
        "iterations": 0,
        "converged": 1,
    },
    "weight-1-rows-0-nostop": {
        "sha256": "28427391f409353c41aa9215b583ed611e8ac2ac12eb173f7f47a07ca2b4bd3b",
        "iterations": 0,
        "converged": 0,
    },
    "weight-1-rows-1-stop": {
        "sha256": "25b5488799f105b99f218a6d34960ead1275943ef785dddf99438f6e4e4ca9a3",
        "iterations": 29,
        "converged": 3,
    },
    "weight-1-rows-1-nostop": {
        "sha256": "a063d3111802be4e0394aee809d4b0c8ab5f46842005dd9e88a8a28f47b70f58",
        "iterations": 30,
        "converged": 3,
    },
    "weight-1-rows-2-stop": {
        "sha256": "4deb0ce8064b91554733e5fc9fca014cb96ea9a7d95c1b333fa3cd7fc426e744",
        "iterations": 56,
        "converged": 3,
    },
    "weight-1-rows-2-nostop": {
        "sha256": "efbf22693d55fda29ba0a8e01efaee793013b3783d1b4d1078f2b4314d73e418",
        "iterations": 60,
        "converged": 3,
    },
    "weight-1-rows-7-stop": {
        "sha256": "c9ffc418e6ab5a75f7fd4617f91ee20105d70f9f714a573888e74dd2f07682b2",
        "iterations": 191,
        "converged": 3,
    },
    "weight-1-rows-7-nostop": {
        "sha256": "9cb4ec3b4bfaba37ab755ce02df53de50caf4e3463daa70073c9b003b1f1d235",
        "iterations": 210,
        "converged": 3,
    },
    "no-rows-0-stop": {
        "sha256": "8a588dc57c3b8583e16d15283e1d5cd85e91eb971f201184bab5ddea2b6e5e77",
        "iterations": 0,
        "converged": 3,
    },
    "no-rows-0-nostop": {
        "sha256": "2e122b76072ffef9e28a1785cd4e7f268ee26350ebcc6e9593e6ab07284a4949",
        "iterations": 0,
        "converged": 0,
    },
    "no-rows-1-stop": {
        "sha256": "8a588dc57c3b8583e16d15283e1d5cd85e91eb971f201184bab5ddea2b6e5e77",
        "iterations": 0,
        "converged": 3,
    },
    "no-rows-1-nostop": {
        "sha256": "ad3638c83d86d5a3f0efcb9e28783c578a111e6a731cbae5746693c4de2f37f8",
        "iterations": 3,
        "converged": 3,
    },
    "no-rows-2-stop": {
        "sha256": "8a588dc57c3b8583e16d15283e1d5cd85e91eb971f201184bab5ddea2b6e5e77",
        "iterations": 0,
        "converged": 3,
    },
    "no-rows-2-nostop": {
        "sha256": "fa0d273c8949a28e7a2ecdbfcd7b9e511d1a95e70977c42a92260b728edc4144",
        "iterations": 6,
        "converged": 3,
    },
    "no-rows-7-stop": {
        "sha256": "8a588dc57c3b8583e16d15283e1d5cd85e91eb971f201184bab5ddea2b6e5e77",
        "iterations": 0,
        "converged": 3,
    },
    "no-rows-7-nostop": {
        "sha256": "ef27310dcb4e8380135bf185957b924a6c794a7b27d3bcf2d748e1887bea673e",
        "iterations": 21,
        "converged": 3,
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
    return digest_of(decoder.decode(s, **kwargs) for s in syndromes)


def digest_batch(decoder, syndromes, **kwargs):
    """digest_results over one decode_batch call on all the syndromes."""
    rows = np.array(syndromes, dtype=np.uint8).reshape(len(syndromes), decoder.m.rows)
    return digest_of(decoder.decode_batch(rows, **kwargs))


def digest_of(results):
    digest = hashlib.sha256()
    iterations = converged = 0
    for res in results:
        for arr in (res.llrs, res.marginals, res.hard_decision):
            digest.update(arr.tobytes())
        digest.update(f"{res.iterations},{int(res.converged)};".encode())
        iterations += res.iterations
        converged += int(res.converged)
    return {"sha256": digest.hexdigest(), "iterations": iterations, "converged": converged}


def data_problem(bb72):
    """300 bb72 data-qubit X syndromes at p=0.06."""
    model = data_qubit_model(bb72, 0.06)[0]
    x_parts, _ = sample_chunk((bb72.n, 0.06), 13, 0, 300)
    syndromes = mat_vec_mod2(model.noise_matrix, x_parts)
    return BPDecoder(model.noise_matrix, model.priors), syndromes


def phenom_problem(bb72):
    """50 phenomenological syndromes, r=3, p=q=0.06."""
    model = phenomenological_model(bb72, 0.06, 0.06, 3)
    syndromes = mat_vec_mod2(model.noise_matrix, sample_chunk(model, 14, 0, 50)[0])
    return BPDecoder(model.noise_matrix, model.priors), syndromes


def random_problem(m, seed, count=30):
    """Seeded random priors in [0.01, 0.45] and `count` random syndromes."""
    rng = np.random.default_rng(seed)
    priors = rng.uniform(0.01, 0.45, size=m.cols)
    syndromes = [rng.integers(0, 2, size=m.rows).astype(np.uint8) for _ in range(count)]
    return BPDecoder(m, priors), syndromes


def irregular_problem(bb72):
    return random_problem(irregular_matrix(), 22)


def weight_1_rows_problem(bb72):
    """9x12 matrix whose rows all have weight 1: columns of weight 0 to 3."""
    entries = [(0, 0), (1, 0), (2, 0), (3, 2), (4, 2), (5, 5), (6, 7), (7, 8), (8, 11)]
    return random_problem(BinaryMatrix(9, 12, entries), 23)


def no_rows_problem(bb72):
    """A 0x6 matrix: every syndrome is empty."""
    return random_problem(BinaryMatrix(0, 6, []), 24, count=3)


def data_corpus(bb72):
    """The data problem on the default schedule."""
    return digest_results(*data_problem(bb72))


def phenom_corpus(bb72):
    """The phenomenological problem on the default schedule."""
    return digest_results(*phenom_problem(bb72))


def irregular_corpus(bb72):
    """30 random syndromes on the irregular matrix, 40 iterations, no early stop."""
    return digest_results(*irregular_problem(bb72), max_iters=40, stop_on_match=False)


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


# sha256 of each result's hard_decision bytes, iterations and converged
# alone: unlike GOLDEN, it holds when only the posterior's last float bits
# move, as they do off numpy's AVX-512 arctanh
GOLDEN_DECISIONS = {
    "data": "564575e2124b138b26d8012f202a12a1f3d06e15188ea759f96f584130bfd3ce",
    "phenom": "40f53af501a6056405e3cd72a7f43a1603112052e43558ed86a92e1430412aa4",
    "irregular": "31305046289e0ff62e9e3d7e697fd25e06a5903bb807626bfc4e80b464870345",
}


def decisions_digest(results):
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.hard_decision.tobytes())
        digest.update(f"{res.iterations},{int(res.converged)};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "problem, kwargs, name",
    [
        (data_problem, {}, "data"),
        (phenom_problem, {}, "phenom"),
        (irregular_problem, {"max_iters": 40, "stop_on_match": False}, "irregular"),
    ],
    ids=["data", "phenom", "irregular"],
)
def test_golden_corpus_decisions(bb72, problem, kwargs, name):
    """The GOLDEN corpora's decisions: a failure here means decisions moved,
    one in test_golden_corpus alone that only float bits did."""
    decoder, syndromes = problem(bb72)
    results = (decoder.decode(s, **kwargs) for s in syndromes)
    assert decisions_digest(results) == GOLDEN_DECISIONS[name]


SHORT_PROBLEMS = {
    "data": data_problem,
    "phenom": phenom_problem,
    "irregular": irregular_problem,
    "weight-1-rows": weight_1_rows_problem,
    "no-rows": no_rows_problem,
}


def test_edge_matrix_shapes():
    m = weight_1_rows_problem(None)[0].m
    assert m.row_weights() == [1] * 9
    assert sorted(set(m.col_weights())) == [0, 1, 2, 3]
    assert no_rows_problem(None)[0].m.rows == 0


@pytest.mark.parametrize("stop_on_match", [True, False], ids=["stop", "nostop"])
@pytest.mark.parametrize("max_iters", [0, 1, 2, 7])
@pytest.mark.parametrize("name", list(SHORT_PROBLEMS))
def test_golden_short_schedules(bb72, name, max_iters, stop_on_match):
    decoder, syndromes = SHORT_PROBLEMS[name](bb72)
    got = digest_results(decoder, syndromes, max_iters=max_iters, stop_on_match=stop_on_match)
    assert got == GOLDEN_SHORT[f"{name}-{max_iters}-{'stop' if stop_on_match else 'nostop'}"]


@pytest.mark.parametrize("name", ["data", "phenom"])
def test_golden_corpus_through_decode_batch(bb72, name):
    decoder, syndromes = {"data": data_problem, "phenom": phenom_problem}[name](bb72)
    assert digest_batch(decoder, syndromes) == GOLDEN[name]


@pytest.mark.parametrize("max_iters", [0, 1, 2, 7])
@pytest.mark.parametrize("name", list(SHORT_PROBLEMS))
def test_golden_short_schedules_through_decode_batch(bb72, name, max_iters):
    decoder, syndromes = SHORT_PROBLEMS[name](bb72)
    got = digest_batch(decoder, syndromes, max_iters=max_iters)
    assert got == GOLDEN_SHORT[f"{name}-{max_iters}-stop"]


def _same_result(got, want):
    return (
        got.posterior.tobytes() == want.posterior.tobytes()
        and got.hard_decision.dtype == want.hard_decision.dtype
        and got.hard_decision.tobytes() == want.hard_decision.tobytes()
        and (got.converged, got.iterations) == (want.converged, want.iterations)
    )


@pytest.fixture(scope="module")
def batch_pool(bb72):
    """Decoders and syndrome pools: bb72 data-qubit noise (a few syndromes
    BP fails on among them) and the irregular matrix."""
    decoder, syndromes = data_problem(bb72)
    data = (decoder, syndromes[syndromes.any(axis=1)][:40])
    irregular, rows = irregular_problem(bb72)
    return {"data": data, "irregular": (irregular, np.array(rows))}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    name=st.sampled_from(["data", "irregular"]),
    picks=st.lists(st.integers(-1, 39) | st.integers(-1, 29), min_size=1, max_size=12),
    max_iters=st.sampled_from([0, 1, 2, 7, 30]),
)
def test_a_batch_row_does_not_depend_on_its_neighbours(batch_pool, name, picks, max_iters):
    """Any order, repeats and zero rows (-1) give every row decode's result
    for that row alone, and so the result of a batch of one."""
    decoder, pool = batch_pool[name]
    picks = [p % len(pool) if p >= 0 else -1 for p in picks]
    zero = np.zeros(decoder.m.rows, dtype=np.uint8)
    rows = np.array([pool[p] if p >= 0 else zero for p in picks])
    results = decoder.decode_batch(rows, max_iters)
    assert len(results) == len(rows)
    for row, got in zip(rows, results):
        assert _same_result(got, decoder.decode(row, max_iters))
        assert _same_result(got, decoder.decode_batch(row[None], max_iters)[0])


@pytest.mark.parametrize("stop_on_match", [True, False])
@pytest.mark.parametrize("max_iters", [0, 1, 7, 30])
def test_rows_past_the_window_decode_as_alone(bb72, max_iters, stop_on_match):
    """A batch wider than BP's window, with zero rows and rows that never
    converge near its end, gives every row its result alone: the pending
    rows refill the window as rows leave it, each at its own iteration 1."""
    decoder, syndromes = data_problem(bb72)
    nonzero = syndromes[syndromes.any(axis=1)]
    failing = [row for row in nonzero if not decoder.decode(row).converged]
    assert len(nonzero) >= 250 and len(failing) >= 3
    zero = np.zeros(decoder.m.rows, dtype=np.uint8)
    tail = [failing[0], zero, failing[1], failing[2], zero, nonzero[0], failing[0], zero]
    rows = np.array([*nonzero[:250], *tail])
    assert len(rows) > 2 * bp._WINDOW
    results = decoder._sum_product(rows, max_iters, stop_on_match)
    assert len(results) == len(rows)
    for row, got in zip(rows, results):
        assert _same_result(got, decoder.decode(row, max_iters, stop_on_match=stop_on_match))
    if stop_on_match:
        batch = decoder.decode_batch(rows, max_iters)
        assert all(_same_result(a, b) for a, b in zip(batch, results))

