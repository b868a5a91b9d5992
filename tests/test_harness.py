import os
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cbdecode import harness
from cbdecode.bbcodes import STANDARD_CODES
from cbdecode.cb import CBParams
from cbdecode.gf2 import vec_from_support
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
from cbdecode.noise import data_qubit_model, save_detector_model


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
    def run_shot(self, index):
        if index < 100:
            return True, 0.0
        time.sleep(0.05)
        return False, 0.0

    monkeypatch.setattr(harness._ShotRunner, "run_shot", run_shot)
    config = _config(max_shots=1000, max_failures=5)
    start = time.perf_counter()
    parallel = run_experiment(config, threads=2)
    assert time.perf_counter() - start < 2.5
    assert parallel == run_experiment(config, threads=1)
    assert parallel.shots_run == parallel.logical_failures == 5


def test_a_dead_pool_worker_raises(monkeypatch):
    # the worker that takes shots 100-199 dies hard; the pool hands its task
    # to no one, so a run that waited for those shots would never return
    def run_shot(self, index):
        if index == 150:
            os._exit(1)
        return False, 0.0

    def give_up(signum, frame):
        raise TimeoutError("still waiting for the dead worker's shots")

    monkeypatch.setattr(harness._ShotRunner, "run_shot", run_shot)
    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    try:
        with pytest.raises(BrokenProcessPool):
            run_experiment(_config(max_shots=400), threads=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
        config = _config(noise=noise, rounds=2)
    # a fixed nonzero output reproduces one syndrome at most, so some shot's
    # residual has a nonzero syndrome
    stub = lambda syndrome, params, model, *a, **kw: vec_from_support(model.noise_matrix.cols, [0])
    monkeypatch.setattr(harness, "bp_cb_decode", stub)
    with pytest.raises(ValueError, match="nonzero syndrome"):
        run_experiment(config)


def test_detector_model_shot_makes_three_mat_vecs(monkeypatch):
    """A phenomenological shot takes one mat-vec for its syndrome and two to
    score its residual (syndrome and observables), counted through every
    cbdecode module that holds mat_vec_mod2."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("cbdecode") and hasattr(module, "mat_vec_mod2"):
            original = module.mat_vec_mod2
            counted = lambda m, v, original=original: calls.append(m) or original(m, v)
            monkeypatch.setattr(module, "mat_vec_mod2", counted)
    runner = harness._ShotRunner(_config(noise="phenomenological", p=0.01, rounds=3))
    for index in range(10):
        calls.clear()
        failed, _ = runner.run_shot(index)
        assert not failed and len(calls) == 3
