import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdecode import noise
from cbdecode.gf2 import mat_vec_mod2
from cbdecode.noise import (
    DemParseError,
    DetectorModel,
    data_qubit_model,
    load_detector_model,
    phenomenological_model,
    sample_chunk,
    sample_depolarizing,
    sample_shot,
    save_detector_model,
    shot_rng,
)


def test_depolarizing_bounds():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_depolarizing(4, -0.1, rng)
    with pytest.raises(ValueError):
        sample_depolarizing(4, 1.1, rng)


def test_depolarizing_trivial_cases():
    rng = np.random.default_rng(0)
    x, z = sample_depolarizing(8, 0.0, rng)
    assert not x.any() and not z.any()
    x, z = sample_depolarizing(1, 1.0, rng)
    assert x[0] or z[0]


def test_depolarizing_rate_within_confidence_interval():
    # fraction of non-identity qubits ~ Binomial(n, p); 99% CI at n = 10^4
    n, p = 10_000, 0.3
    rng = np.random.default_rng(123)
    x, z = sample_depolarizing(n, p, rng)
    frac = float((x | z).mean())
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 2.58 * sigma + 0.008


def test_depolarizing_xyz_split():
    # conditioned on an error, X/Y/Z are equiprobable; Pr[x_part] = 2p/3
    n, p = 30_000, 0.4
    rng = np.random.default_rng(7)
    x, _ = sample_depolarizing(n, p, rng)
    x_rate = float(x.mean())
    assert abs(x_rate - 2 * p / 3) < 0.01


def test_data_qubit_model_structure(bb72):
    mx, mz = data_qubit_model(bb72, 0.3)
    assert mx.noise_matrix is bb72.hz
    assert mz.noise_matrix is bb72.hx
    assert mx.noise_matrix.rows == 36 and mx.noise_matrix.cols == 72
    assert set(mx.noise_matrix.row_weights()) == {6}
    assert np.allclose(mx.priors, 0.2)  # Pr[X or Y] = 2p/3
    assert mx.observables.rows == 12
    mx0, _ = data_qubit_model(bb72, 0.0)
    assert (mx0.priors == 0.0).all()


def test_phenomenological_rounds_one_matches_data_model(bb72):
    mx, _ = data_qubit_model(bb72, 0.05)
    ph = phenomenological_model(bb72, 0.05, 0.0, 1)
    assert ph.noise_matrix == mx.noise_matrix
    assert ph.observables == mx.observables
    assert np.array_equal(ph.priors, mx.priors)
    assert max(ph.noise_matrix.row_weights()) <= 7


def test_phenomenological_row_weights(bb72):
    model = phenomenological_model(bb72, 0.01, 0.01, 6)
    weights = np.array(model.noise_matrix.row_weights()).reshape(6, 36)
    assert (weights[0] == 7).all()
    assert (weights[-1] == 7).all()
    assert (weights[1:-1] == 8).all()


def test_phenomenological_measurement_columns(bb72):
    rounds = 4
    model = phenomenological_model(bb72, 0.02, 0.03, rounds)
    checks = 36
    data_cols = rounds * 72
    assert model.noise_matrix.cols == data_cols + (rounds - 1) * checks
    # every measurement column flips exactly the two vertically adjacent detectors
    for t in range(rounds - 1):
        for c in range(checks):
            col = data_cols + t * checks + c
            assert model.noise_matrix.col_support[col] == (
                t * checks + c,
                (t + 1) * checks + c,
            )
            assert model.priors[col] == 0.03
            assert model.observables.col_support[col] == ()
    assert (model.priors[:data_cols] == 2 * 0.02 / 3).all()


def test_detector_model_rejects_a_nan_prior(bb72):
    # NaN compares false with both bounds, so the check must fail on "not inside"
    priors = np.full(bb72.n, 0.01)
    priors[3] = np.nan
    with pytest.raises(ValueError, match=r"priors must lie in \[0, 0.5\]"):
        DetectorModel(noise_matrix=bb72.hz, priors=priors, observables=bb72.hz)
    with pytest.raises(ValueError, match="priors must lie"):
        phenomenological_model(bb72, 0.01, float("nan"), 2)


def test_phenomenological_rejects_zero_rounds(bb72):
    with pytest.raises(ValueError):
        phenomenological_model(bb72, 0.01, 0.01, 0)


def test_sample_shot_invariants(bb72):
    model = phenomenological_model(bb72, 0.04, 0.04, 3)
    for i in range(25):
        mechanisms = sample_shot(model, shot_rng(5, i))
        assert mechanisms.dtype == np.uint8 and mechanisms.shape == (model.noise_matrix.cols,)
        want = np.random.default_rng((5, i)).random(model.noise_matrix.cols) < model.priors
        assert np.array_equal(mechanisms, want)


def test_sample_shot_trivial_priors(bb72):
    mx, _ = data_qubit_model(bb72, 0.0)
    assert not sample_shot(mx, shot_rng(1, 1)).any()


def test_sample_shot_mean_syndrome_weight(bb72):
    # exact odd-parity probability per detector: (1 - prod(1 - 2 p_i)) / 2
    model = phenomenological_model(bb72, 0.05, 0.05, 3)
    dense = model.noise_matrix.to_dense().astype(bool)
    expected = 0.0
    for r in range(dense.shape[0]):
        probs = model.priors[dense[r]]
        expected += (1.0 - np.prod(1.0 - 2.0 * probs)) / 2.0
    n_shots = 4000
    mechanisms = np.array([sample_shot(model, shot_rng(11, i)) for i in range(n_shots)])
    mean = int(mat_vec_mod2(model.noise_matrix, mechanisms).sum()) / n_shots
    sigma = np.sqrt(expected / n_shots)  # crude Poisson-style bound
    assert abs(mean - expected) < 4 * sigma + 0.05 * expected


def test_shot_streams_are_reproducible(bb72):
    mx, _ = data_qubit_model(bb72, 0.1)
    a = [sample_shot(mx, shot_rng(42, i)) for i in range(10)]
    b = [sample_shot(mx, shot_rng(42, i)) for i in range(10)]
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    c = sample_shot(mx, shot_rng(43, 0))
    assert any(not np.array_equal(c, u) for u in a[:1])


def test_dem_load_minimal(tmp_path):
    path = tmp_path / "a.dem"
    path.write_text("error 0.1 D0\n")
    model = load_detector_model(str(path))
    assert model.noise_matrix.rows == 1 and model.noise_matrix.cols == 1
    assert model.observables.rows == 0
    assert model.priors.tolist() == [0.1]

    path.write_text("error 0.2 D0 D1 L0\n")
    model = load_detector_model(str(path))
    assert model.noise_matrix.col_support[0] == (0, 1)
    assert model.observables.col_support[0] == (0,)


def test_dem_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.dem"
    path.write_text("# header\n\nerror 0.1 D0 # trailing\nerror 0.2 D1\n")
    model = load_detector_model(str(path))
    assert model.noise_matrix.cols == 2


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("noise 0.1 D0\n", "unknown statement"),
        ("error\n", "missing probability"),
        ("error zz D0\n", "bad probability"),
        ("error 1.5 D0\n", "outside (0, 1)"),
        ("error 0.0 D0\n", "outside (0, 1)"),
        ("error 0.7 D0\n", "above 0.5"),
        ("error 0.1 Q0\n", "bad target"),
        ("error 0.1 D0\nerror 0.2 D\u00b2\n", ":2: bad target"),  # "²" passes str.isdigit()
        ("error 0.1 D0\nerror 0.2 D0\n", "duplicate"),
        ("error 0.1 D0\nerror \u0660.\u0661 D1\n", ":2: bad probability"),  # Arabic-Indic 0.1
        ("error 0.1 D0\nerror 0.1_0 D1\n", ":2: bad probability"),
    ],
)
def test_dem_parse_errors_carry_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.dem"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DemParseError) as err:
        load_detector_model(str(path))
    assert fragment in str(err.value)
    assert ".dem:" in str(err.value)


def test_dem_reads_an_exponent_probability(tmp_path):
    path = tmp_path / "e.dem"
    path.write_text("error 5e-2 D0\n", encoding="utf-8")
    assert load_detector_model(str(path)).priors.tolist() == [0.05]


def test_dem_rejects_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "bytes.dem"
    path.write_bytes(b"error 0.1 D0\n# comment \xff\nerror 0.2 D1\n")
    with pytest.raises(DemParseError) as err:
        load_detector_model(str(path))
    assert str(err.value).startswith(f"{path}:2: not UTF-8")


_DEM_PROBABILITIES = st.sampled_from(["nan", "0", "0.7", "0.1", "0.5", "1e-3", "-0.2", "inf"])
_DEM_TARGETS = st.builds(lambda kind, k: f"{kind}{k}", st.sampled_from("DL"), st.integers(0, 9999))
_DEM_JUNK = st.text(alphabet="DLe0123456789.#_-x\u00b2\u0663\uff11\u00e9", min_size=1, max_size=6)
_DEM_TOKENS = st.one_of(
    st.sampled_from(["error", "noise", "#"]), _DEM_PROBABILITIES, _DEM_TARGETS, _DEM_JUNK
)
_DEM_STATEMENTS = st.builds(
    lambda p, targets: " ".join(["error", p, *targets]),
    _DEM_PROBABILITIES, st.lists(_DEM_TARGETS | _DEM_JUNK, max_size=4),
)
_DEM_LINES = st.one_of(
    st.lists(_DEM_TOKENS, max_size=5).map(" ".join).map(str.encode),
    _DEM_STATEMENTS.map(str.encode),
    st.builds(bytes.__add__, st.sampled_from([b"error 0.1 D", b"#", b""]),
              st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])),  # not UTF-8
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_DEM_LINES, min_size=1, max_size=6), st.booleans())
def test_dem_loader_raises_only_line_numbered_parse_errors(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline else b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.dem")
        Path(path).write_bytes(data)
        try:
            load_detector_model(path)
        except DemParseError as err:
            message = str(err)
            assert message.startswith(f"{path}:")
            line = message[len(path) + 1:].split(":", 1)[0]
            assert line.isdigit() and 1 <= int(line) <= len(data.splitlines())


def test_dem_round_trip(tmp_path, bb72):
    model = phenomenological_model(bb72, 0.03, 0.02, 3)
    p1 = tmp_path / "m1.dem"
    p2 = tmp_path / "m2.dem"
    save_detector_model(model, str(p1))
    loaded = load_detector_model(str(p1))
    assert loaded == DetectorModel(
        noise_matrix=model.noise_matrix,
        priors=model.priors,
        observables=model.observables,
    )
    save_detector_model(loaded, str(p2))
    assert p1.read_text() == p2.read_text()


# The chunk sampler reproduces the per-shot functions from raw PCG64 words.
# Seeds span one to seven 32-bit words: 2**96 + 5 and 2**200 + 3 give
# SeedSequence more entropy words than its pool of four.
CHUNK_SEEDS = [0, 1, 65536, 2**32 - 1, 2**32, (2**32 - 1) << 16, 2**63 - 5,
               12345678901234567890, 2**96 + 5, 2**200 + 3]


def _per_shot_depolarizing(n, p, seed, start, stop):
    """[x_parts, z_parts] of the per-shot draws, one row per shot."""
    errs = [sample_depolarizing(n, p, shot_rng(seed, i)) for i in range(start, stop)]
    return list(np.swapaxes(np.reshape(errs, (-1, 2, n)), 0, 1))


@pytest.mark.parametrize("n,p", [(7, 0.3), (72, 0.05), (144, 0.12), (8, 0.5), (5, 1.0), (9, 0.0)])
@pytest.mark.parametrize("seed", CHUNK_SEEDS)
def test_chunk_sampler_matches_sample_depolarizing(n, p, seed):
    # a chunk whose start is not a multiple of the harness's chunk size
    x, z = sample_chunk((n, p), seed, 137, 183)
    want_x, want_z = _per_shot_depolarizing(n, p, seed, 137, 183)
    assert x.dtype == z.dtype == np.uint8
    assert np.array_equal(x, want_x) and np.array_equal(z, want_z)


@pytest.mark.parametrize("seed", [3, 2**32 + 9, 2**41 + 5, 2**130 + 1])
def test_chunk_sampler_matches_sample_shot(bb72, seed):
    phenom = phenomenological_model(bb72, 0.04, 0.03, 3)
    mx, _ = data_qubit_model(bb72, 0.05)
    priors = mx.priors.copy()
    priors[::3] = 0.0  # zero priors never fire
    sparse = DetectorModel(noise_matrix=mx.noise_matrix, priors=priors, observables=mx.observables)
    for model in (phenom, sparse):
        (mechanisms,) = sample_chunk(model, seed, 250, 310)
        want = [sample_shot(model, shot_rng(seed, i)) for i in range(250, 310)]
        assert mechanisms.dtype == np.uint8 and np.array_equal(mechanisms, want)
    assert not mechanisms[:, ::3].any()


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_sample_chunk_draws_what_default_rng_draws(bb72, seed):
    # the stream contract of the docstring, checked against numpy itself
    model = phenomenological_model(bb72, 0.04, 0.03, 2)
    n, p = 72, 0.1
    (mechanisms,) = sample_chunk(model, seed, 90, 130)
    x, z = sample_chunk((n, p), seed, 90, 130)
    for j, i in enumerate(range(90, 130)):
        rng = np.random.default_rng((seed, i))
        assert np.array_equal(mechanisms[j], rng.random(model.noise_matrix.cols) < model.priors)
        rng = np.random.default_rng((seed, i))
        hit, kind = rng.random(n) < p, rng.integers(0, 3, size=n)
        assert np.array_equal(x[j], hit & (kind != 2)) and np.array_equal(z[j], hit & (kind != 0))


def test_chunk_straddling_shot_index_2_32(bb72):
    start, stop = 2**32 - 4, 2**32 + 4
    assert np.array_equal(sample_chunk((72, 0.2), 11, start, stop),
                          _per_shot_depolarizing(72, 0.2, 11, start, stop))
    model = phenomenological_model(bb72, 0.04, 0.04, 2)
    (mechanisms,) = sample_chunk(model, 11, start, stop)
    want = [sample_shot(model, shot_rng(11, i)) for i in range(start, stop)]
    assert np.array_equal(mechanisms, want)


def test_the_self_check_passes_on_this_numpy():
    # otherwise every shot silently takes the slow per-shot path
    assert noise._EXACT is True and noise._raw_words_exact()


def _zero_u32(monkeypatch, n, row, u32):
    """Patch the raw-word source so that u32 draw `u32` of `row` reads 0; the
    integer draws' words follow the n words of the uniform draws."""
    original = noise._raw_rows

    def patched(seed, shots, width):
        rows = original(seed, shots, width)
        word = n + u32 // 2
        rows[row, word] &= np.uint64(0xFFFFFFFF00000000 if u32 % 2 == 0 else 0xFFFFFFFF)
        return rows

    monkeypatch.setattr(noise, "_raw_rows", patched)
    fallbacks = []
    monkeypatch.setattr(noise, "shot_rng", lambda s, i: fallbacks.append(i) or shot_rng(s, i))
    return fallbacks


def test_a_zero_word_falls_back_to_the_per_shot_draw(monkeypatch):
    # p = 1 hits every qubit; pick a qubit of shot 2 that is not X, where a
    # zero word read without Lemire's redraw would give X
    n, seed = 9, 4
    want = _per_shot_depolarizing(n, 1.0, seed, 0, 5)
    qubit = int(np.flatnonzero(want[1][2])[0])
    fallbacks = _zero_u32(monkeypatch, n, 2, qubit)
    assert np.array_equal(sample_chunk((n, 1.0), seed, 0, 5), want)
    assert fallbacks == [2]


def test_a_zero_in_the_unread_half_word_keeps_the_raw_draw(monkeypatch):
    # n = 9 reads 9 u32 from 5 words; the high half of the last is never used
    fallbacks = _zero_u32(monkeypatch, 9, 1, 9)
    assert np.array_equal(sample_chunk((9, 0.6), 4, 0, 3),
                          _per_shot_depolarizing(9, 0.6, 4, 0, 3))
    assert fallbacks == []


def test_chunk_sampler_keeps_the_per_shot_errors():
    with pytest.raises(ValueError, match="depolarizing probability"):
        sample_chunk((4, 1.5), 0, 0, 3)
    with pytest.raises(ValueError, match="non-negative"):
        sample_chunk((4, 0.1), -1, 0, 3)
    # numpy takes only integer seeds; int(1.5) would draw seed 1's shots
    for seed in (1.5, 1.0):
        with pytest.raises(TypeError, match="seed must be integer"):
            sample_chunk((4, 0.1), seed, 0, 3)
    assert np.array_equal(sample_chunk((4, 0.1), np.int64(1), 0, 3), sample_chunk((4, 0.1), 1, 0, 3))


def test_boundary_words_draw_as_numpys_formulas(monkeypatch):
    # random() is (raw >> 11) * 2**-53, and integers(0, 3) is (3 * u) >> 32
    # on u32 draws; words at each threshold pin the comparisons exactly
    p = 0.3
    t = math.ceil(p * 2**53)
    us = [1431655765, 1431655766, 2863311530, 2863311531]
    ints = [us[0] | us[1] << 32, us[2] | us[3] << 32]
    rows = np.array([[(t - 1) << 11, t << 11, (t - 1) << 11 | 0x7FF, (t + 1) << 11] + ints,
                     [0, 0x7FF, 1 << 11, (t - 1) << 11] + ints], dtype=np.uint64)
    monkeypatch.setattr(noise, "_raw_rows", lambda seed, shots, width: rows[: len(shots)])
    x, z = sample_chunk((4, p), 0, 0, 2)
    hit = (rows[:, :4] >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p
    kind = np.array([(3 * u) >> 32 for u in us])
    assert hit.tolist() == [[True, False, True, False], [True, True, True, True]]
    assert kind.tolist() == [0, 1, 1, 2]
    assert np.array_equal(x, hit & (kind != 2)) and np.array_equal(z, hit & (kind != 0))
