"""The names and arguments the benchmark's tracer hooks must keep existing.

`perfbench/tracing.py` wraps cbdecode functions by name and reads some of
their arguments by name.  A rename there only prints a note and drops the
per-layer metrics that need it, so these tests pin the seam instead.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from cbdecode import cb
from cbdecode.bp import BPDecoder, bp_cb_decode
from cbdecode.cb import CBParams, cb_decode, run_schedule
from cbdecode.bbcodes import STANDARD_CODES
from cbdecode.gf2 import mat_vec_mod2, vec_from_support
from cbdecode.harness import ExperimentConfig, run_experiment
from cbdecode.noise import data_qubit_model, sample_chunk

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_decoder_entries_bind_syndrome_and_matrix(tracing, bb72):
    model, _ = data_qubit_model(bb72, 0.05)
    params = CBParams(6, 10, 3)
    syndrome = np.zeros(bb72.hz.rows, dtype=np.uint8)
    got = tracing._problem(inspect.signature(bp_cb_decode), (syndrome, params, model), {})
    assert got[0] is syndrome and got[1] is model.noise_matrix
    got = tracing._problem(inspect.signature(cb_decode), (syndrome, params, bb72.hz), {})
    assert got[0] is syndrome and got[1] is bb72.hz


def test_run_schedule_takes_the_traced_arguments():
    assert {"params", "budget_for_step", "stats"} <= set(inspect.signature(run_schedule).parameters)


def test_every_hook_resolves_and_the_traced_schedule_counts_cb_work(tracing, bb72):
    syndrome = mat_vec_mod2(bb72.hz, vec_from_support(72, [0, 17]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = cb.cb_decode(syndrome, CBParams(6, 10, 3), bb72.hz)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert np.array_equal(mat_vec_mod2(bb72.hz, out), syndrome)
    assert tracer.calls["cb.schedule"] == 1
    assert tracer.counts["cb.branches_closed"] > 0
    assert tracer.counts.get("check.unsound", 0) == 0


def test_a_traced_destructive_decode_records_every_stage_span(tracing, bb72):
    # seed 0 draws a weight-7 error whose decode reaches destructive growth
    rng = np.random.default_rng(0)
    syndrome = mat_vec_mod2(bb72.hz, (rng.random(72) < 0.06).astype(np.uint8))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cb.cb_decode(syndrome, CBParams(6, 10, 3), bb72.hz)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    for span in ("cb.weight1", "cb.nondest", "cb.dest"):
        assert tracer.calls.get(span, 0) > 0, span


def test_a_traced_bp_decode_counts_the_results_iterations_and_convergence(tracing, bb72):
    # the tracer reads both off the result with getattr(out, ..., 0), so a
    # renamed field would blank bp.iters_mean and bp.converged_share
    model, _ = data_qubit_model(bb72, 0.05)
    decoder = BPDecoder.for_model(model)
    syndromes = mat_vec_mod2(model.noise_matrix, sample_chunk(model, 3, 0, 40)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [decoder.decode(s) for s in syndromes]
    finally:
        tracer.uninstall()
    assert tracer.calls["bp.decode"] == len(results)
    assert tracer.counts["bp.iters"] == sum(r.iterations for r in results) > 0
    assert tracer.counts["bp.converged"] == sum(r.converged for r in results)
    assert 0 < tracer.counts["bp.converged"] < len(results)


def test_decode_batch_results_carry_each_rows_iterations_and_convergence(bb72):
    # a hook on decode_batch can count BP's work per row off its results, as
    # the bp.decode hook reads it off decode's one result
    model, _ = data_qubit_model(bb72, 0.05)
    decoder = BPDecoder.for_model(model)
    syndromes = mat_vec_mod2(model.noise_matrix, sample_chunk(model, 3, 0, 40)[0])
    results = decoder.decode_batch(syndromes)
    singles = [decoder.decode(s) for s in syndromes]
    assert len(results) == len(syndromes)
    assert [getattr(r, "iterations", None) for r in results] == [r.iterations for r in singles]
    assert [getattr(r, "converged", None) for r in results] == [r.converged for r in singles]
    assert 0 < sum(r.converged for r in results) < len(results)


def test_a_traced_bp_cb_run_checks_every_nonzero_syndrome(tracing, bb72):
    """The harness runs BP batched, outside the per-shot bp.decode hook, and
    bp_cb_decode once per nonzero syndrome: the tracer checks every output,
    while bp.decode counts no call until decode_batch is hooked."""
    config = ExperimentConfig(noise="data-qubit", p=0.05, code_spec=STANDARD_CODES["bb72"],
                              params=CBParams(6, 10, 3), max_shots=200, max_failures=None, seed=9)
    model, _ = data_qubit_model(bb72, 0.05)
    x_parts, _ = sample_chunk((bb72.n, 0.05), 9, 0, 200)
    nonzero = int(mat_vec_mod2(model.noise_matrix, x_parts).any(axis=1).sum())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_experiment(config)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.calls["bp.entry"] == tracer.counts["check.outputs"] == nonzero
    assert tracer.counts.get("check.unsound", 0) == 0
    assert tracer.calls.get("bp.decode", 0) == 0
