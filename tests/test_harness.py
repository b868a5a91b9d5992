import os
import re
import signal
import sys
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cbdecode import harness, noise
from cbdecode.bbcodes import STANDARD_CODES
from cbdecode.bp import MAX_ITERS, BPDecoder, bp_cb_decode
from cbdecode.cb import CBParams
from cbdecode.gf2 import kernel_basis_mod2, mat_vec_mod2, vec_from_support
from cbdecode.harness import (
    ExperimentConfig,
    append_csv,
    crossing_estimate,
    logical_failure,
    result_row,
    run_experiment,
    CSV_COLUMNS,
)
from cbdecode.noise import (
    data_qubit_model,
    phenomenological_model,
    sample_chunk,
    sample_depolarizing,
    sample_shot,
    save_detector_model,
    shot_rng,
)


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


@pytest.mark.parametrize("seed", [1.5, True, False, "3", None])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # 1.5 failed only at the first chunk's draw; True ran as seed 1
    with pytest.raises(ValueError, match="seed must be an integer"):
        _config(seed=seed)
    assert _config(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("rounds", "max_shots", "max_failures", "seed", "bp_iters")
      for value in (2.5, True, "3")),
    *((key, value) for key in ("p", "q") for value in ("0.05", True)),
    *((key, value) for key in ("max_gr", "max_br", "max_tcts") for value in (6.5, True)),
    ("threads", 1.5),
])
def test_every_experiment_value_has_its_type_checked(monkeypatch, key, value):
    # each was truncated, accepted, hung BP or raised a TypeError mid-run
    monkeypatch.setattr(harness, "_span_outcomes", None)  # no shot may run
    message = f"config key '{key}' cannot take the value {value!r}: {key} must be "
    with pytest.raises(ValueError, match=re.escape(message)):
        if key == "threads":
            run_experiment(_config(max_shots=100), threads=value)
        elif key in ("max_gr", "max_br", "max_tcts"):
            CBParams(**{"max_gr": 6, "max_br": 10, "max_tcts": 3, key: value})
        else:
            _config(**{key: value})


def test_config_keeps_p_and_q_as_floats():
    config = _config(noise="phenomenological", p=np.float32(0.25), q=0, rounds=2)
    assert (type(config.p), type(config.q), config.p, config.q) == (float, float, 0.25, 0.0)


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
    source = ({"code_spec": None, "dem_path": "m.dem", "p": 0.0} if noise == "circuit-file"
              else {"rounds": 2})
    with pytest.raises(ValueError, match=f"{noise} noise has only sector x"):
        _config(noise=noise, sector=sector, **source)
    assert _config(noise=noise, sector="x", **source).sector == "x"


@pytest.mark.parametrize("p", [0.02, 1e-9])
def test_config_rejects_a_p_for_circuit_file_noise(p):
    # the file's priors are the noise, so each p of a sweep decoded the same model
    source = dict(noise="circuit-file", code_spec=None, dem_path="m.dem")
    with pytest.raises(ValueError, match="circuit-file noise takes its priors from the file"):
        _config(p=p, **source)
    assert _config(p=0.0, **source).p == 0.0


@pytest.mark.parametrize("q", [0.0, 0.3])
@pytest.mark.parametrize("noise", ["data-qubit", "circuit-file"])
def test_config_rejects_a_q_for_noise_without_measurement_errors(noise, q):
    source = ({"code_spec": None, "dem_path": "m.dem", "p": 0.0} if noise == "circuit-file"
              else {})
    with pytest.raises(ValueError, match=f"{noise} noise has no measurement error rate q"):
        _config(noise=noise, q=q, **source)
    assert _config(noise="phenomenological", q=q, rounds=2).q == q


@pytest.mark.parametrize("p", [-0.01, 0.76, float("nan"), float("inf")])
@pytest.mark.parametrize("noise", ["data-qubit", "phenomenological"])
def test_config_rejects_a_p_out_of_range(noise, p):
    # a prior 2p/3 above 0.5 is no noise model, and NaN would reach the
    # model builder only after the output files were opened
    source = {"rounds": 2, "q": 0.01} if noise == "phenomenological" else {}
    with pytest.raises(ValueError, match=r"p must lie in \[0, 0.75\]"):
        _config(noise=noise, p=p, **source)
    assert _config(noise=noise, p=0.75, **source).p == 0.75


@pytest.mark.parametrize("q, p", [(-0.01, 0.05), (0.51, 0.05), (float("nan"), 0.05), (None, 0.6)])
def test_config_rejects_a_q_out_of_range(q, p):
    # an unset q is p, so p above 0.5 is a measurement error rate above 0.5
    with pytest.raises(ValueError, match=r"q \(p when q is unset\) must lie in \[0, 0.5\]"):
        _config(noise="phenomenological", rounds=2, p=p, q=q)
    assert _config(noise="phenomenological", rounds=2, p=0.5, q=None).q is None
    assert _config(noise="phenomenological", rounds=2, p=0.05, q=0.5).q == 0.5


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
        shots = np.arange(start, stop)
        if start >= 100:
            time.sleep(0.05 * shots.size)
        return shots < 100, np.zeros(shots.size)

    monkeypatch.setattr(harness._ShotRunner, "run_shots", run_shots)
    config = _config(max_shots=1000, max_failures=5)
    start = time.perf_counter()
    parallel = run_experiment(config, threads=2)
    assert time.perf_counter() - start < 2.5
    assert parallel == run_experiment(config, threads=1)
    assert parallel.shots_run == parallel.logical_failures == 5


def test_a_dead_pool_worker_raises(monkeypatch):
    # the worker that takes shots 0-199 dies hard; the pool hands its task
    # to no one, so a run that waited for those shots would never return
    def run_shots(self, start, stop):
        if start <= 150 < stop:
            os._exit(1)
        return np.zeros(stop - start, dtype=bool), np.zeros(stop - start)

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
    with pytest.raises(ValueError, match=r"p must lie in \[0, 0.75\]"):
        run_experiment(_config(p=float("nan")), threads=2)


def test_bad_input_raises_before_the_pool_starts(tmp_path, monkeypatch):
    # a pool whose workers failed to build their inputs would restart them forever
    monkeypatch.setattr(harness.multiprocessing, "Pool", None)
    config = _config(noise="circuit-file", p=0.0, code_spec=None,
                     dem_path=str(tmp_path / "nope.dem"))
    with pytest.raises(FileNotFoundError):
        run_experiment(config, threads=2)


class _InProcessPool:
    """Stands in for multiprocessing.Pool: records its size and runs the
    tasks in this process, through the same initializer."""

    def __init__(self, sizes, processes, initializer, initargs):
        sizes.append(processes)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        results = map(fn, tasks)

        class Results:
            def next(self, timeout=None):
                return next(results)

        return Results()

    def close(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("threads,max_shots,size", [(8, 250, 3), (8, 1000, 8), (2, 101, 2),
                                                    (8, 100, None), (8, 1, None)])
def test_a_pool_starts_no_more_workers_than_it_has_tasks(monkeypatch, threads, max_shots, size):
    sizes = []
    monkeypatch.setattr(harness, "_WORKER_RUNNER", None)
    monkeypatch.setattr(harness.multiprocessing, "Pool",
                        lambda processes, **kwargs: _InProcessPool(sizes, processes, **kwargs))
    config = _config(p=0.05, max_shots=max_shots, max_failures=None)
    result = run_experiment(config, threads=threads)
    assert sizes == ([] if size is None else [size])  # one task: the run is serial
    serial = run_experiment(config)
    assert (result.shots_run, result.logical_failures) == (max_shots, serial.logical_failures)


@pytest.mark.parametrize("threads", [0, -1, -8])
def test_fewer_than_one_thread_is_rejected(monkeypatch, threads):
    monkeypatch.setattr(harness.multiprocessing, "Pool", None)
    monkeypatch.setattr(harness, "_span_outcomes", None)
    with pytest.raises(ValueError, match=r"threads must be >= 1"):
        run_experiment(_config(max_shots=100), threads=threads)


@pytest.mark.parametrize("noise", ["data-qubit", "phenomenological", "circuit-file"])
def test_unsound_output_raises_on_every_noise_model(noise, bb72, tmp_path, monkeypatch):
    if noise == "circuit-file":
        dem = tmp_path / "m.dem"
        save_detector_model(data_qubit_model(bb72, 0.05)[0], str(dem))
        config = _config(noise=noise, p=0.0, code_spec=None, dem_path=str(dem))
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
        failed, spent = runner.run_shots(start, start + shots)
        assert len(failed) == len(spent) == shots and failed.sum() <= shots // 20
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
        "circuit-file": _config(noise="circuit-file", p=0.0, code_spec=None, dem_path=str(dem),
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


def _sector_syndromes(runner, start, stop):
    """Each sector's syndromes of shots [start, stop), one row per shot."""
    parts = dict(zip(("x", "z"), sample_chunk(runner.source, runner.config.seed, start, stop)))
    return [mat_vec_mod2(model.noise_matrix, parts[sector]) for sector, model, _ in runner.sectors]


def test_a_bp_cb_chunk_runs_bp_once_per_sector(monkeypatch):
    """One decode_batch call per sector, then one bp_cb_decode call per
    nonzero syndrome, in shot order, on that syndrome's BP result."""
    batches, entries = [], []
    batch = BPDecoder.decode_batch

    def counted_batch(self, syndromes, max_iters):
        batches.append(len(syndromes))
        return batch(self, syndromes, max_iters)

    def counted_entry(syndrome, params, model, *, bp_result):
        entries.append((model, syndrome.copy(), bp_result))
        return bp_cb_decode(syndrome, params, model, bp_result=bp_result)

    monkeypatch.setattr(BPDecoder, "decode_batch", counted_batch)
    monkeypatch.setattr(BPDecoder, "decode", lambda *a, **k: pytest.fail("per-shot BP ran"))
    monkeypatch.setattr(harness, "bp_cb_decode", counted_entry)
    runner = harness._ShotRunner(_config(sector="both", p=0.03))
    failed, spent = runner.run_shots(100, 200)
    assert len(failed) == len(spent) == 100
    want = [(model, row) for (_, model, _), syndromes in zip(runner.sectors, _sector_syndromes(
        runner, 100, 200)) for row in syndromes[syndromes.any(axis=1)]]
    assert len(batches) == 2 and 0 < batches[0] < 100 and sum(batches) == len(want)
    assert len(entries) == len(want)
    for (model, syndrome, result), (want_model, want_syndrome) in zip(entries, want):
        assert model is want_model and np.array_equal(syndrome, want_syndrome)
        assert result.iterations > 0


def _recorded_spans(monkeypatch) -> list[list[int]]:
    """[start, stop, decode_batch calls] of each run_shots call, as it runs."""
    spans: list[list[int]] = []
    run_shots, batch = harness._ShotRunner.run_shots, BPDecoder.decode_batch

    def recorded_run(self, start, stop):
        spans.append([start, stop, 0])
        return run_shots(self, start, stop)

    def counted_batch(self, syndromes, max_iters):
        spans[-1][2] += 1
        return batch(self, syndromes, max_iters)

    monkeypatch.setattr(harness._ShotRunner, "run_shots", recorded_run)
    monkeypatch.setattr(BPDecoder, "decode_batch", counted_batch)
    return spans


@pytest.mark.parametrize("max_failures", [1, 40, 150])
def test_a_span_under_a_failure_target_is_no_wider_than_the_target_needs(monkeypatch,
                                                                         max_failures):
    """Under a failure target R a span holds at most ceil(R / 100) chunks,
    since a shot fails at most once, and the run decodes no span past the
    one in which it stops; with R <= 100 that span is the stopping chunk."""
    spans = _recorded_spans(monkeypatch)
    config = _config(p=0.06, sector="both", max_shots=5000, max_failures=max_failures, seed=3)
    result = run_experiment(config)
    assert result.logical_failures == max_failures
    end = -(-result.shots_run // 100) * 100
    assert [start for start, _, _ in spans] == [0] + [stop for _, stop, _ in spans[:-1]]
    assert all(start % 100 == 0 and stop % 100 == 0 for start, stop, _ in spans)
    assert all(calls == 2 for _, _, calls in spans)  # one BP batch per sector
    assert all(stop - start <= -(-max_failures // 100) * 100 for start, stop, _ in spans)
    assert spans[-1][0] < end  # no span starts past the stopping chunk
    if max_failures <= 100:
        assert spans[-1][1] == end
    else:
        assert spans[0][1] == 200  # 150 failures need at least two chunks


@pytest.mark.parametrize("max_failures,chunks", [(None, 10), (100, 1)])
def test_serial_and_pooled_runs_take_the_same_spans(monkeypatch, max_failures, chunks):
    spans = _recorded_spans(monkeypatch)
    monkeypatch.setattr(harness, "_WORKER_RUNNER", None)
    monkeypatch.setattr(harness.multiprocessing, "Pool",
                        lambda processes, **kwargs: _InProcessPool([], processes, **kwargs))
    config = _config(p=0.05, max_shots=4000, max_failures=max_failures)
    results = []
    for threads in (1, 2):
        spans.clear()
        result = run_experiment(config, threads=threads)
        starts = harness._spans(config, threads)
        schedule = [(start, min(start + starts.step, starts.stop)) for start in starts]
        # the spans taken are the schedule's, up to the one holding the last shot
        assert [(start, stop) for start, stop, _ in spans] == [
            (start, stop) for start, stop in schedule if start < result.shots_run]
        assert all(stop - start == chunks * 100 for start, stop in schedule)
        results.append((result.shots_run, result.logical_failures))
    assert results[0] == results[1]
    if max_failures is not None:
        assert results[0][1] == max_failures and results[0][0] < 4000


def test_the_span_schedule_costs_the_same_at_any_shot_cap():
    # a failure target of 100 makes each of the 10**6 spans one chunk wide
    config = _config(max_shots=10**8, max_failures=100)
    tracemalloc.start()
    try:
        starts = harness._spans(config, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert len(starts) == 10**6 and (starts[1], starts[-1], starts.step) == (100, 10**8 - 100, 100)


def test_a_serial_run_without_a_failure_target_decodes_spans_of_chunks(monkeypatch):
    spans = _recorded_spans(monkeypatch)
    config = _config(p=0.05, sector="both", max_shots=2550, max_failures=None)
    assert run_experiment(config).shots_run == 2550
    assert [(start, stop) for start, stop, _ in spans] == [(0, 1000), (1000, 2000), (2000, 2550)]
    assert all(calls == 2 for _, _, calls in spans)


def test_a_span_is_sampled_in_one_call(monkeypatch):
    calls = []

    def recorded(source, seed, start, stop):
        calls.append((start, stop))
        return sample_chunk(source, seed, start, stop)

    monkeypatch.setattr(harness, "sample_chunk", recorded)
    config = _config(p=0.05, sector="both", max_shots=2550, max_failures=None)
    assert run_experiment(config).shots_run == 2550
    assert calls == [(0, 1000), (1000, 2000), (2000, 2550)]


@pytest.mark.parametrize("bp_iters", [MAX_ITERS, 0])
def test_only_zero_syndrome_shots_read_no_decode_time(bp_iters):
    # a cap of 0 iterations splits the BP batch's time evenly
    runner = harness._ShotRunner(_config(p=0.01, bp_iters=bp_iters))
    _, spent = runner.run_shots(0, 100)
    (syndromes,) = _sector_syndromes(runner, 0, 100)
    nonzero = syndromes.any(axis=1)
    assert 10 < nonzero.sum() < 90
    assert (spent > 0).tolist() == nonzero.tolist()
