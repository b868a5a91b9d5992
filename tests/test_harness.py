import os
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cbdecode import harness, noise
from cbdecode.bbcodes import STANDARD_CODES
from cbdecode.bp import BPDecoder, bp_cb_decode
from cbdecode.cb import CBParams
from cbdecode.gf2 import kernel_basis_mod2, mat_vec_mod2, vec_from_support
from cbdecode.harness import (
    ExperimentConfig,
    append_csv,
    crossing_estimate,
    logical_failure,
    required_shots,
    result_row,
    run_experiment,
    CSV_COLUMNS,
)
from cbdecode.noise import (
    data_qubit_model,
    phenomenological_model,
    sample_depolarizing,
    sample_shot,
    save_detector_model,
    shot_rng,
)


def test_required_shots():
    assert required_shots(0.01) == 10_000
    assert required_shots(1.0) == 100
    assert required_shots(0.5) == 200
    with pytest.raises(ValueError):
        required_shots(0.0)
    with pytest.raises(ValueError):
        required_shots(-1.0)


def test_logical_failure_basic(bb72):
    model, _ = data_qubit_model(bb72, 0.1)
    actual = vec_from_support(72, [3, 10])
    assert not logical_failure(model, actual, actual.copy())
    # a residual equal to an X-type stabilizer (row of hx) acts trivially
    stab = bb72.hx.to_dense()[4]
    assert not logical_failure(model, actual, actual ^ stab)
    # residual equal to an X logical representative (in ker hz) flips its
    # paired observable
    rep = bb72.logical_x[0]
    assert logical_failure(model, actual, actual ^ rep)


def test_logical_failure_invariant_under_stabilizers(bb72):
    model, _ = data_qubit_model(bb72, 0.1)
    rng = np.random.default_rng(0)
    actual = (rng.random(72) < 0.1).astype(np.uint8)
    recovered = actual ^ bb72.logical_x[2]
    base = logical_failure(model, actual, recovered)
    for _ in range(10):
        rows = rng.choice(36, size=rng.integers(1, 4), replace=False)
        shifted = recovered.copy()
        for r in rows:
            shifted ^= bb72.hx.to_dense()[r]
        assert logical_failure(model, actual, shifted) == base


def test_logical_failure_residual_check(bb72):
    model, _ = data_qubit_model(bb72, 0.1)
    actual = vec_from_support(72, [0])
    bad = np.zeros(72, dtype=np.uint8)
    with pytest.raises(ValueError):
        logical_failure(model, actual, bad)


@pytest.mark.parametrize("noise", ["data-qubit", "phenomenological"])
def test_mask_scoring_matches_the_mat_vecs(bb72, noise):
    """logical_failure against two plain mat-vecs, on seeded random
    residuals: sparse and dense, in and out of the check kernel, one at a
    time and as one batch of rows."""
    if noise == "data-qubit":
        model = data_qubit_model(bb72, 0.05)[0]
    else:
        model = phenomenological_model(bb72, 0.03, 0.03, 3)
    kernel = kernel_basis_mod2(model.noise_matrix)
    rng = np.random.default_rng(41)
    cols = model.noise_matrix.cols
    verdicts, kept, trials = [], [], []
    for trial in range(200):
        actual = (rng.random(cols) < rng.choice([0.01, 0.1, 0.5])).astype(np.uint8)
        recovered = actual.copy()
        if trial % 2:
            # a residual in the check kernel: an XOR of kernel basis vectors
            for _ in range(rng.integers(1, 4)):
                recovered ^= kernel[rng.integers(len(kernel))]
        else:
            recovered ^= (rng.random(cols) < 0.05).astype(np.uint8)
        residual = actual ^ recovered
        trials.append((actual, recovered))
        if mat_vec_mod2(model.noise_matrix, residual).any():
            with pytest.raises(ValueError, match="nonzero syndrome"):
                logical_failure(model, actual, recovered)
        else:
            flips = bool(mat_vec_mod2(model.observables, residual).any())
            assert logical_failure(model, actual, recovered) == flips
            verdicts.append(flips)
            kept.append(trial)
    assert 50 <= len(verdicts) <= 150 and 0 < sum(verdicts) < len(verdicts)
    actual, recovered = (np.array(rows) for rows in zip(*trials))
    got = logical_failure(model, actual[kept], recovered[kept])
    assert got.shape == (len(kept),) and got.tolist() == verdicts
    with pytest.raises(ValueError, match="nonzero syndrome"):
        logical_failure(model, actual, recovered)
    # one row outside the check kernel fails the whole batch
    bad = next(t for t in range(200) if t not in kept)
    with pytest.raises(ValueError, match="nonzero syndrome"):
        logical_failure(model, actual[kept + [bad]], recovered[kept + [bad]])


def test_logical_failure_rejects_misshapen_vectors(bb72):
    model, _ = data_qubit_model(bb72, 0.1)
    good = np.zeros(72, dtype=np.uint8)
    for bad in (np.zeros(71, np.uint8), np.zeros(73, np.uint8), np.zeros((1, 72), np.uint8),
                np.zeros(1, np.uint8), np.uint8(0)):
        with pytest.raises(ValueError, match="shape"):
            logical_failure(model, good, bad)
        with pytest.raises(ValueError, match="shape"):
            logical_failure(model, bad, good)


def test_logical_failure_counts_entries_by_parity(bb72):
    model, _ = data_qubit_model(bb72, 0.1)
    actual = np.zeros(72, dtype=np.uint8)
    # 2 is even: no residual; 3 is odd: the logical representative survives
    assert not logical_failure(model, actual, bb72.logical_x[0] * 2)
    assert logical_failure(model, actual, bb72.logical_x[0] * 3)


def _config(**kw):
    base = dict(
        noise="data-qubit",
        p=0.05,
        code_spec=STANDARD_CODES["bb72"],
        params=CBParams(6, 10, 3),
        decoder="bp+cb",
        max_shots=200,
        max_failures=None,
        seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_zero_error_rate_gives_zero_failures():
    result = run_experiment(_config(p=0.0, max_shots=50))
    assert result.logical_failures == 0
    assert result.shots_run == 50
    assert result.p_l_total == 0.0


def test_identity_stub_decoder_fails_often(monkeypatch):
    stub = lambda syndrome, params, model, *a, **kw: np.zeros(model.noise_matrix.cols, dtype=np.uint8)
    monkeypatch.setattr(harness, "bp_cb_decode", stub)
    result = run_experiment(_config(p=0.3, max_shots=120))
    # with no correction at p = 0.3 nearly every shot has a nonzero syndrome
    assert result.logical_failures > 100


def test_reproducible_counts():
    r1 = run_experiment(_config(max_shots=150))
    r2 = run_experiment(_config(max_shots=150))
    assert r1.logical_failures == r2.logical_failures
    assert r1.shots_run == r2.shots_run


def test_early_stop_on_failure_target():
    result = run_experiment(_config(p=0.12, max_shots=5000, max_failures=10))
    assert result.logical_failures >= 10
    assert result.shots_run < 5000


def test_per_cycle_normalization(bb72):
    config = ExperimentConfig(
        noise="phenomenological",
        p=0.03,
        rounds=3,
        code_spec=STANDARD_CODES["bb72"],
        params=CBParams(6, 36, 3),
        max_shots=60,
        max_failures=None,
        seed=2,
    )
    result = run_experiment(config)
    assert result.p_l_per_cycle == pytest.approx(result.p_l_total / 3)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(noise="circuit-file")  # dem_path missing
    with pytest.raises(ValueError):
        _config(decoder="magic")
    with pytest.raises(ValueError):
        _config(max_shots=0)
    for max_failures in (0, -1):
        with pytest.raises(ValueError):
            _config(max_failures=max_failures)
    with pytest.raises(ValueError):
        ExperimentConfig(noise="data-qubit", p=0.1, code_spec=None)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        _config(seed=-1)
    assert _config(seed=0).seed == 0


def test_config_rejects_a_negative_bp_iteration_cap():
    with pytest.raises(ValueError, match="bp_iters must be >= 0"):
        _config(bp_iters=-5)
    # a cap of 0 stays valid: CB then runs with the priors as weights
    assert _config(bp_iters=0).bp_iters == 0


def test_config_rejects_cb_without_a_step():
    with pytest.raises(ValueError, match="max_gr >= 2"):
        _config(decoder="cb", params=CBParams(1, 10, 3))
    # BP+CB's schedule starts at step 1
    assert _config(decoder="bp+cb", params=CBParams(1, 10, 3)).params.max_gr == 1


@pytest.mark.parametrize("sector", ["z", "both"])
@pytest.mark.parametrize("noise", ["phenomenological", "circuit-file"])
def test_config_rejects_a_sector_the_noise_model_lacks(noise, sector):
    # these models decode one detector model, so a z or both run would
    # silently decode the x model instead
    source = ({"code_spec": None, "dem_path": "m.dem"} if noise == "circuit-file"
              else {"rounds": 2})
    with pytest.raises(ValueError, match=f"{noise} noise has only sector x"):
        _config(noise=noise, sector=sector, **source)
    assert _config(noise=noise, sector="x", **source).sector == "x"


@pytest.mark.parametrize("rounds", [2, 3])
def test_config_rejects_rounds_for_data_qubit_noise(rounds):
    # p_l_per_cycle would divide a one-round rate by `rounds`
    with pytest.raises(ValueError, match="data-qubit noise has one round"):
        _config(rounds=rounds)
    assert _config(rounds=1).rounds == 1
    assert _config(noise="phenomenological", rounds=rounds).rounds == rounds


def test_pl_statistically_monotone_in_budgets():
    # paired seeds: a larger branch budget should not noticeably hurt
    small = run_experiment(
        _config(decoder="cb", p=0.06, max_shots=1000, params=CBParams(3, 6, 3))
    )
    large = run_experiment(
        _config(decoder="cb", p=0.06, max_shots=1000, params=CBParams(6, 24, 3))
    )
    f_small, f_large = small.logical_failures, large.logical_failures
    sigma = np.sqrt(max(f_small, 1))
    assert f_large <= f_small + 3 * sigma


def test_csv_rows(tmp_path):
    config = _config(max_shots=30)
    result = run_experiment(config)
    row = result_row(config, result)
    assert len(row) == len(CSV_COLUMNS)
    path = tmp_path / "out.csv"
    append_csv(str(path), [row])
    append_csv(str(path), [row])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == lines[2]
    # identical reruns agree on everything but the timing column
    rerun = result_row(config, run_experiment(config))
    assert rerun[:-1] == row[:-1]


def test_crossing_estimate():
    pts = [(0.02, 0.005), (0.04, 0.02), (0.06, 0.09)]
    x = crossing_estimate(pts)
    assert x is not None and 0.04 < x < 0.06
    assert crossing_estimate([(0.02, 0.001), (0.04, 0.002)]) is None
    assert crossing_estimate([(0.02, 0.02), (0.04, 0.1)]) == 0.02


@pytest.mark.parametrize("max_failures", [None, 10])
def test_threads_reproduce_serial_counts(max_failures):
    # at p = 0.12 the serial run reaches 10 failures within 16 shots, far
    # inside the shots one pool task or a 500-shot wave would cover
    config = _config(p=0.12, max_shots=300, max_failures=max_failures)
    serial = run_experiment(config)
    parallel = run_experiment(config, threads=2)
    assert parallel.logical_failures == serial.logical_failures
    assert parallel.shots_run == serial.shots_run
    if max_failures is not None:
        assert serial.logical_failures == max_failures
        assert serial.shots_run < config.max_shots


def test_pool_stops_at_the_failure_target(monkeypatch):
    # the first pool task fails at once; a worker that went on to the next
    # task would spend 100 x 50 ms on it
    def run_shots(self, start, stop):
        for index in range(start, stop):
            if index < 100:
                yield True, 0.0
            else:
                time.sleep(0.05)
                yield False, 0.0

    monkeypatch.setattr(harness._ShotRunner, "run_shots", run_shots)
    config = _config(max_shots=1000, max_failures=5)
    start = time.perf_counter()
    parallel = run_experiment(config, threads=2)
    assert time.perf_counter() - start < 2.5
    assert parallel == run_experiment(config, threads=1)
    assert parallel.shots_run == parallel.logical_failures == 5


def test_a_dead_pool_worker_raises(monkeypatch):
    # the worker that takes shots 100-199 dies hard; the pool hands its task
    # to no one, so a run that waited for those shots would never return
    def run_shots(self, start, stop):
        for index in range(start, stop):
            if index == 150:
                os._exit(1)
            yield False, 0.0

    def give_up(signum, frame):
        raise TimeoutError("still waiting for the dead worker's shots")

    monkeypatch.setattr(harness._ShotRunner, "run_shots", run_shots)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    try:
        with pytest.raises(BrokenProcessPool):
            run_experiment(_config(max_shots=400), threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_nan_error_rate_raises_before_the_pool_starts(monkeypatch):
    monkeypatch.setattr(harness.multiprocessing, "Pool", None)
    with pytest.raises(ValueError, match="priors must lie"):
        run_experiment(_config(p=float("nan")), threads=2)


def test_bad_input_raises_before_the_pool_starts(tmp_path, monkeypatch):
    # a pool whose workers failed to build their inputs would restart them forever
    monkeypatch.setattr(harness.multiprocessing, "Pool", None)
    config = _config(noise="circuit-file", code_spec=None, dem_path=str(tmp_path / "nope.dem"))
    with pytest.raises(FileNotFoundError):
        run_experiment(config, threads=2)


@pytest.mark.parametrize("noise", ["data-qubit", "phenomenological", "circuit-file"])
def test_unsound_output_raises_on_every_noise_model(noise, bb72, tmp_path, monkeypatch):
    if noise == "circuit-file":
        dem = tmp_path / "m.dem"
        save_detector_model(data_qubit_model(bb72, 0.05)[0], str(dem))
        config = _config(noise=noise, code_spec=None, dem_path=str(dem))
    else:
        config = _config(noise=noise, rounds=2 if noise == "phenomenological" else 1)
    # a fixed nonzero output reproduces one syndrome at most, so some shot's
    # residual has a nonzero syndrome
    stub = lambda syndrome, params, model, *a, **kw: vec_from_support(model.noise_matrix.cols, [0])
    monkeypatch.setattr(harness, "bp_cb_decode", stub)
    with pytest.raises(ValueError, match="nonzero syndrome"):
        run_experiment(config)


@pytest.mark.parametrize("shots", [1, 100])
def test_detector_model_chunk_makes_three_mat_vecs(monkeypatch, shots):
    """A phenomenological chunk of any size takes three mat-vecs: its
    syndromes, then its residuals' syndromes and observable flips.  Counted
    through every cbdecode module that holds mat_vec_mod2."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("cbdecode") and hasattr(module, "mat_vec_mod2"):
            original = module.mat_vec_mod2
            counted = lambda m, v, original=original: calls.append(m) or original(m, v)
            monkeypatch.setattr(module, "mat_vec_mod2", counted)
    runner = harness._ShotRunner(_config(noise="phenomenological", p=0.01, rounds=3))
    model = runner.sectors[0][1]
    for start in (0, 300):
        calls.clear()
        outcomes = list(runner.run_shots(start, start + shots))
        assert len(outcomes) == shots and sum(failed for failed, _ in outcomes) <= shots // 20
        assert calls == [model.noise_matrix, model.noise_matrix, model.observables]


def _per_shot_reference(config):
    """(shots run, failures) of a loop that draws shot i from shot_rng(seed, i)
    with the per-shot functions and stops at the exact failure target."""
    sectors = [(sector, model, BPDecoder.for_model(model))
               for sector, model in harness.detector_models(config)]
    failures = 0
    for index in range(config.max_shots):
        rng = shot_rng(config.seed, index)
        if config.noise == "data-qubit":
            x_part, z_part = sample_depolarizing(sectors[0][1].noise_matrix.cols, config.p, rng)
            parts = {"x": x_part, "z": z_part}
        else:
            parts = {"x": sample_shot(sectors[0][1], rng)}
        failed = False
        for sector, model, bp in sectors:
            syndrome = mat_vec_mod2(model.noise_matrix, parts[sector])
            recovered = np.zeros(model.noise_matrix.cols, dtype=np.uint8)
            if syndrome.any():
                recovered = bp_cb_decode(syndrome, config.params, model, config.bp_iters, decoder=bp)
            declared = syndrome.any() and not recovered.any()
            failed |= declared or logical_failure(model, parts[sector], recovered)
        failures += failed
        if failures == config.max_failures:
            return index + 1, failures
    return config.max_shots, failures


def _stream_configs(tmp_path, bb72):
    dem = tmp_path / "m.dem"
    save_detector_model(data_qubit_model(bb72, 0.07)[0], str(dem))
    # at seed 7 each failure target is reached inside the second chunk of shots
    run = dict(seed=7, max_shots=300)
    return {
        "x": _config(p=0.07, sector="x", max_failures=16, **run),
        "z": _config(p=0.07, sector="z", max_failures=20, **run),
        "both": _config(p=0.07, sector="both", max_failures=30, **run),
        "phenomenological": _config(noise="phenomenological", p=0.06, rounds=2, max_failures=34,
                                    **run),
        "circuit-file": _config(noise="circuit-file", code_spec=None, dem_path=str(dem),
                                max_failures=17, **run),
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("setting", ["x", "z", "both", "phenomenological", "circuit-file"])
def test_chunked_runs_match_the_per_shot_stream(setting, threads, tmp_path, bb72):
    config = _stream_configs(tmp_path, bb72)[setting]
    shots, failures = _per_shot_reference(config)
    assert 100 < shots < 200 and failures == config.max_failures
    result = run_experiment(config, threads=threads)
    assert (result.shots_run, result.logical_failures) == (shots, failures)


def test_a_failed_self_check_draws_every_shot_per_shot(monkeypatch, bb72, tmp_path):
    configs = [_stream_configs(tmp_path, bb72)[name] for name in ("both", "phenomenological")]
    fast = [run_experiment(config) for config in configs]
    # a wrong PCG64 multiplier stands for a numpy release with another algorithm
    monkeypatch.setattr(noise, "_PCG64_MULT", noise._PCG64_MULT + 2)
    assert not noise._raw_words_exact()
    monkeypatch.setattr(noise, "_EXACT", False)
    draws = []
    monkeypatch.setattr(noise, "shot_rng", lambda s, i: draws.append(i) or shot_rng(s, i))
    for config, want in zip(configs, fast):
        draws.clear()
        got = run_experiment(config)
        assert (got.shots_run, got.logical_failures) == (want.shots_run, want.logical_failures)
        assert draws == list(range(len(draws))) and len(draws) >= got.shots_run
