import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

from cbdecode.bp import LLR_CLAMP, MAX_ITERS, BPDecoder, _column_sums, bp_cb_decode, event_weights
from cbdecode.cb import CBParams, run_schedule
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2
from cbdecode.harness import ExperimentConfig
from cbdecode.noise import data_qubit_model, phenomenological_model, sample_chunk


def _syndromes(model, seed, shots):
    """The syndromes of shots 0 to shots - 1 of `seed`, one row each."""
    return mat_vec_mod2(model.noise_matrix, sample_chunk(model, seed, 0, shots)[0])


def chain_code():
    return BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])


def exact_marginals(m, syndrome, priors):
    num = np.zeros(m.cols)
    den = 0.0
    for bits in itertools.product([0, 1], repeat=m.cols):
        e = np.array(bits, dtype=np.uint8)
        if np.array_equal(mat_vec_mod2(m, e), syndrome):
            w = float(np.prod(np.where(e == 1, priors, 1.0 - priors)))
            num += w * e
            den += w
    return num / den


def test_zero_syndrome_converges_at_iteration_zero():
    m = chain_code()
    res = BPDecoder(m, np.array([0.1, 0.2, 0.3])).decode(np.zeros(2, dtype=np.uint8))
    assert res.converged and res.iterations == 0
    assert not res.hard_decision.any()


def test_single_check_single_mechanism_forced():
    m = BinaryMatrix.from_dense([[1]])
    res = BPDecoder(m, np.array([0.1])).decode(np.array([1], dtype=np.uint8))
    assert res.hard_decision.tolist() == [1]
    assert res.converged


def test_marginals_exact_on_tree():
    m = chain_code()
    priors = np.array([0.1, 0.1, 0.1])
    for syndrome in ([0, 0], [0, 1], [1, 0], [1, 1]):
        s = np.array(syndrome, dtype=np.uint8)
        res = BPDecoder(m, priors).decode(s, max_iters=40, stop_on_match=False)
        exact = exact_marginals(m, s, priors)
        assert np.abs(res.marginals - exact).max() < 1e-9


def test_marginals_exact_on_tree_asymmetric_priors():
    m = BinaryMatrix.from_dense([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    priors = np.array([0.02, 0.3, 0.11, 0.47])
    for syndrome in ([1, 0, 1], [0, 1, 0], [1, 1, 1]):
        s = np.array(syndrome, dtype=np.uint8)
        res = BPDecoder(m, priors).decode(s, max_iters=60, stop_on_match=False)
        exact = exact_marginals(m, s, priors)
        assert np.abs(res.marginals - exact).max() < 1e-9


def test_prior_validation():
    m = chain_code()
    with pytest.raises(ValueError):
        BPDecoder(m, np.array([0.0, 0.1, 0.1]))
    with pytest.raises(ValueError):
        BPDecoder(m, np.array([0.6, 0.1, 0.1]))
    with pytest.raises(ValueError):  # NaN compares false with both bounds
        BPDecoder(m, np.array([0.1, np.nan, 0.1]))


def test_llrs_follow_marginals_and_are_clamped():
    m = BinaryMatrix.from_dense([[1]])
    res = BPDecoder(m, np.array([1e-9])).decode(
        np.array([1], dtype=np.uint8), max_iters=5, stop_on_match=False
    )
    assert res.llrs.max() <= 25.0 and res.llrs.min() >= -25.0
    # hard decision flips exactly where the marginal exceeds 1/2
    assert np.array_equal(res.hard_decision, (res.marginals > 0.5).astype(np.uint8))


def test_shot_path_needs_no_dense_matrix(bb72, monkeypatch):
    # BP and the mat-vec work from sparse index arrays alone
    model, _ = data_qubit_model(bb72, 0.06)

    def no_dense(self):
        raise AssertionError("dense copy requested")

    monkeypatch.setattr(BinaryMatrix, "to_dense", no_dense)
    dec = BPDecoder(model.noise_matrix, model.priors)
    for syndrome in _syndromes(model, 8, 20):
        res = dec.decode(syndrome)
        if res.converged:
            parity = mat_vec_mod2(model.noise_matrix, res.hard_decision)
            assert np.array_equal(parity, syndrome)


def test_bp_cb_decode_without_a_decoder_floors_zero_priors(bb72):
    # q = 0 gives the measurement-error columns zero priors, which BPDecoder
    # rejects; the decoder bp_cb_decode builds floors them, as the harness's does
    model = phenomenological_model(bb72, 0.04, 0.0, 3)
    assert (model.priors == 0.0).any()
    params = CBParams(6, 36, 3)
    decoded = 0
    for syndrome in _syndromes(model, 21, 12):
        if not syndrome.any():
            continue
        out = bp_cb_decode(syndrome, params, model)
        ref = bp_cb_decode(syndrome, params, model, decoder=BPDecoder.for_model(model))
        assert np.array_equal(out, ref)
        if out.any():
            assert np.array_equal(mat_vec_mod2(model.noise_matrix, out), syndrome)
        decoded += 1
    assert decoded > 0


def test_event_weights_examples():
    w = event_weights(np.array([0.5, 2.0, -1.0]))
    assert np.allclose(w, [2.5, 4.0, 1.0])
    assert event_weights(np.array([3.0, 3.0])).tolist() == [1.0, 1.0]
    shifted = event_weights(np.array([0.5, 2.0, -1.0]) + 7.5)
    assert np.allclose(shifted, w)
    assert event_weights(np.array([4.0, 1.2, 9.9])).min() == 1.0
    with pytest.raises(ValueError):
        event_weights(np.array([]))


def test_unit_weights_match_plain_schedule(bb72):
    # with all event weights equal to 1 the weighted engine must make the
    # same decisions as the plain one over the same step range
    m = bb72.hz
    params = CBParams(5, 12, 3)
    ones = np.ones(m.cols)
    rng = np.random.default_rng(77)
    for _ in range(40):
        e = (rng.random(72) < 0.05).astype(np.uint8)
        s = mat_vec_mod2(m, e)
        plain = run_schedule(s, params, m, range(2, 6), float)
        weighted = run_schedule(
            s, params, m, range(2, 6), float, event_weights=ones
        )
        assert np.array_equal(plain, weighted)


def test_bp_cb_returns_bp_answer_when_it_matches(bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    params = CBParams(6, 10, 3)
    dec = BPDecoder(model.noise_matrix, model.priors)
    found_converged = False
    for syndrome in _syndromes(model, 3, 40):
        res = dec.decode(syndrome, 30)
        out = bp_cb_decode(syndrome, params, model, decoder=dec)
        if res.converged:
            found_converged = True
            assert np.array_equal(out, res.hard_decision)
    assert found_converged


def test_bp_cb_zero_syndrome(bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    out = bp_cb_decode(np.zeros(36, dtype=np.uint8), CBParams(6, 10, 3), model)
    assert not out.any()


def test_bp_cb_soundness(bb72):
    model, _ = data_qubit_model(bb72, 0.08)
    params = CBParams(6, 10, 3)
    dec = BPDecoder(model.noise_matrix, model.priors)
    m = model.noise_matrix
    non_trivial = 0
    for syndrome in _syndromes(model, 13, 200):
        out = bp_cb_decode(syndrome, params, model, decoder=dec)
        if out.any():
            non_trivial += 1
            assert np.array_equal(mat_vec_mod2(m, out), syndrome)
    assert non_trivial > 100


def test_bp_cb_rescues_some_bp_failures(bb72):
    model, _ = data_qubit_model(bb72, 0.08)
    params = CBParams(6, 10, 3)
    dec = BPDecoder(model.noise_matrix, model.priors)
    rescued = 0
    for syndrome in _syndromes(model, 29, 300):
        if not syndrome.any():
            continue
        res = dec.decode(syndrome, 30)
        if res.converged:
            continue
        out = bp_cb_decode(syndrome, params, model, decoder=dec)
        if out.any():
            rescued += 1
    assert rescued >= 5


def test_detector_model_round_trip_through_decoder(bb72):
    # weighted decoding over a phenomenological-style model stays sound
    from cbdecode.noise import phenomenological_model

    model = phenomenological_model(bb72, 0.03, 0.03, 3)
    params = CBParams(6, 36, 3)
    dec = BPDecoder(model.noise_matrix, model.priors)
    for syndrome in _syndromes(model, 4, 40):
        out = bp_cb_decode(syndrome, params, model, decoder=dec)
        if out.any():
            assert np.array_equal(
                mat_vec_mod2(model.noise_matrix, out), syndrome
            )


# --- The result contract ------------------------------------------------------


def bb72_syndromes(model, dec, seed=3, shots=200):
    """A zero syndrome, then the first syndromes BP converges and fails on."""
    found = {"zero": np.zeros(model.noise_matrix.rows, dtype=np.uint8)}
    for syndrome in _syndromes(model, seed, shots):
        if syndrome.any():
            found.setdefault("converged" if dec.decode(syndrome).converged else "failed", syndrome)
    assert set(found) == {"zero", "converged", "failed"}
    return found


def test_marginals_and_llrs_are_read_from_the_posterior(bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    dec = BPDecoder.for_model(model)
    results = [dec.decode(s) for s in bb72_syndromes(model, dec).values()]
    # a prior of 1e-12 gives an llr beyond the clamp
    results.append(BPDecoder(chain_code(), np.array([1e-12, 0.1, 0.3])).decode(
        np.array([1, 0], dtype=np.uint8), max_iters=0
    ))
    assert np.abs(results[-1].posterior).max() > LLR_CLAMP
    for res in results:
        marginals = 1.0 / (1.0 + np.exp(res.posterior.clip(-700.0, 700.0)))
        assert np.array_equal(res.marginals, marginals)
        assert np.array_equal(res.llrs, res.posterior.clip(-LLR_CLAMP, LLR_CLAMP))


def test_a_zero_syndrome_result_holds_the_priors_read_only():
    dec = BPDecoder(chain_code(), np.array([0.1, 0.2, 0.3]))
    res = dec.decode(np.zeros(2, dtype=np.uint8))
    assert not res.posterior.flags.writeable
    with pytest.raises(ValueError):
        res.posterior[0] = -1.0
    assert np.allclose(res.posterior, np.log([9.0, 4.0, 7.0 / 3.0]))


def test_writing_into_returned_arrays_leaves_the_next_decode_unchanged(bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    params = CBParams(6, 10, 3)
    dec = BPDecoder.for_model(model)
    for name, syndrome in bb72_syndromes(model, dec).items():
        res = dec.decode(syndrome)
        want = [a.copy() for a in (res.posterior, res.hard_decision, res.marginals, res.llrs)]
        want_bpcb = bp_cb_decode(syndrome, params, model, decoder=dec).copy()
        for arr in (res.posterior, res.hard_decision, res.marginals, res.llrs,
                    bp_cb_decode(syndrome, params, model, decoder=dec)):
            if arr.flags.writeable:
                arr[...] = 1
        again = dec.decode(syndrome)
        got = [again.posterior, again.hard_decision, again.marginals, again.llrs]
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), name
        assert np.array_equal(bp_cb_decode(syndrome, params, model, decoder=dec), want_bpcb), name


def test_the_iteration_cap_has_one_default():
    for fn in (BPDecoder.decode, BPDecoder.decode_batch, bp_cb_decode):
        assert inspect.signature(fn).parameters["max_iters"].default == MAX_ITERS
    assert ExperimentConfig.bp_iters == MAX_ITERS


def test_decode_rejects_a_negative_iteration_cap():
    dec = BPDecoder(chain_code(), np.array([0.1, 0.2, 0.3]))
    syndrome = np.array([1, 0], dtype=np.uint8)
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        dec.decode(syndrome, max_iters=-1)
    # a cap that no iteration count equals never stopped a row that fails
    # to converge; this syndrome converges, so a missing check fails here
    for cap in (2.5, True):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            dec.decode(np.array([0, 1], dtype=np.uint8), max_iters=cap)
    # a cap of 0 stays valid: the priors are the posterior
    res = dec.decode(syndrome, max_iters=0)
    assert (res.converged, res.iterations) == (False, 0)
    assert np.array_equal(res.posterior, dec.prior_llr)


def test_decode_rejects_a_syndrome_of_the_wrong_shape():
    dec = BPDecoder(chain_code(), np.array([0.1, 0.2, 0.3]))
    # a (1, rows) array is not taken for a batch of one
    for bad in (np.array([1, 0, 1]), np.array(1), np.array([[1, 0]])):
        with pytest.raises(ValueError, match="syndrome length must equal the matrix row count"):
            dec.decode(bad.astype(np.uint8))


def test_decode_batch_rejects_a_bad_cap_or_shape():
    dec = BPDecoder(chain_code(), np.array([0.1, 0.2, 0.3]))
    rows = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    with pytest.raises(ValueError, match="max_iters must be >= 0"):
        dec.decode_batch(rows, max_iters=-1)
    for cap in (2.5, True):  # both rows converge, so the call returns without the check
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            dec.decode_batch(rows, max_iters=cap)
    for bad in (rows[0], rows[:, :1], np.zeros((2, 3), np.uint8), rows[None]):
        with pytest.raises(ValueError, match="syndromes must be a"):
            dec.decode_batch(bad)
    assert dec.decode_batch(np.zeros((0, 2), np.uint8)) == []


def test_writing_into_a_batch_result_leaves_the_others_unchanged(bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    dec = BPDecoder.for_model(model)
    rows = np.array(list(bb72_syndromes(model, dec).values()) * 2)
    results = dec.decode_batch(rows)
    want = [(r.posterior.copy(), r.hard_decision.copy()) for r in results]
    for res in results[::2]:
        for arr in (res.posterior, res.hard_decision):
            if arr.flags.writeable:
                arr[...] = 1
    for res, (posterior, hard) in list(zip(results, want))[1::2]:
        assert np.array_equal(res.posterior, posterior)
        assert np.array_equal(res.hard_decision, hard)
    again = dec.decode_batch(rows)
    assert all(np.array_equal(r.posterior, w[0]) for r, w in zip(again, want))


def test_bp_cb_decode_on_a_given_bp_result_runs_no_bp(bb72, monkeypatch):
    model, _ = data_qubit_model(bb72, 0.05)
    params = CBParams(6, 10, 3)
    dec = BPDecoder.for_model(model)
    found = bb72_syndromes(model, dec)
    want = {name: bp_cb_decode(s, params, model, decoder=dec) for name, s in found.items()}
    results = dec.decode_batch(np.array(list(found.values())))
    monkeypatch.setattr(BPDecoder, "decode", lambda *a, **k: pytest.fail("BP ran again"))
    monkeypatch.setattr(BPDecoder, "for_model", lambda *a, **k: pytest.fail("a decoder was built"))
    for (name, syndrome), result in zip(found.items(), results):
        got = bp_cb_decode(syndrome, params, model, bp_result=result)
        assert np.array_equal(got, want[name]), name
    # CB rescued the syndrome BP failed on
    failed = results[list(found).index("failed")]
    assert want["failed"].any() and not np.array_equal(want["failed"], failed.hard_decision)


def test_a_batch_works_in_memory_that_does_not_grow_with_it(bb72):
    """BP's buffers hold one window of rows, so a 1000-row batch needs about
    the working memory of a 100-row one beyond the results it returns (a
    third more, as its window stays full; nine times as much with buffers
    as wide as the batch)."""
    model = data_qubit_model(bb72, 0.05)[0]
    dec = BPDecoder.for_model(model)
    syndromes = _syndromes(model, 9, 1200)
    syndromes = syndromes[syndromes.any(axis=1)][:1000]
    assert len(syndromes) == 1000

    def working_kb(rows):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results = dec.decode_batch(rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(rows)
        return (peak - held) / 1024, (held - before) / 1024

    working_kb(syndromes[:100])  # numpy's first-call allocations
    small, _ = working_kb(syndromes[:100])
    large, results_kb = working_kb(syndromes)
    assert large < 1.5 * small, (small, large)
    assert results_kb > small / 2  # the results alone would have hidden a growing buffer



def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("slots", [range(1, 40), range(40, 140), range(140, 301)],
                         ids=["1-39", "40-139", "140-300"])
def test_column_sums_add_the_planes_in_numpys_order(slots):
    """A column's sum over its slot planes is, bit for bit, what `.sum` gives
    over the same terms along a contiguous axis: under 8 terms, 8 to 128
    and above 128, with mixed magnitudes, -0.0 entries, all-(-0.0) columns
    and padding zeros.  Only an all-zero sum may differ, in its sign, and
    adding a prior's llr, 0.0 for a prior of 0.5 included, removes that."""
    rng = np.random.default_rng(25)
    llrs = np.log((1.0 - np.array([0.5, 0.05, 1e-12])) / np.array([0.5, 0.05, 1e-12]))
    assert _bits(llrs[:1]) == _bits(np.zeros(1))  # a prior of 0.5 is an llr of +0.0
    reordered = 0
    for n in slots:
        terms = rng.standard_normal((4, 6, n)) * 10.0 ** rng.integers(-12, 13, (4, 6, n))
        terms[0, :, ::3] = -0.0
        terms[1, 0] = -0.0  # an all-(-0.0) column
        terms[1, 1] = 0.0  # padding alone
        terms[2, :, n // 2 :] = 0.0  # padding after the messages
        terms[3, 0, 1::2] = -terms[3, 0, : n - n % 2 : 2]  # each term cancels the one before
        want = terms.sum(axis=-1)
        got = _column_sums(np.ascontiguousarray(np.swapaxes(terms, -1, -2)))
        assert got.shape == want.shape and np.array_equal(got, want), n
        nonzero = want != 0.0
        assert np.array_equal(_bits(got[nonzero]), _bits(want[nonzero])), n
        for llr in llrs:
            assert np.array_equal(_bits(llr + got), _bits(llr + want)), (n, llr)
        in_turn = terms[..., 0].copy()
        for k in range(1, n):
            in_turn += terms[..., k]
        reordered += not np.array_equal(in_turn, want)
    # the terms tell the orders apart: adding every plane in turn misses
    assert reordered > 0 if slots.stop > 8 else reordered == 0
