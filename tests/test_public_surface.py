import dataclasses
import inspect

import pytest

import cbdecode
from cbdecode import cb
from cbdecode.bp import bp_cb_decode

# the package's public names; removing or adding one edits this list on purpose
PUBLIC_NAMES = [
    "BBCodeSpec",
    "BPDecoder",
    "BPResult",
    "BinaryMatrix",
    "CBParams",
    "CSSCode",
    "ClosedBranch",
    "Cluster",
    "DecodeStats",
    "DetectorModel",
    "ExperimentConfig",
    "ExperimentResult",
    "Monomial",
    "STANDARD_CODES",
    "bp_cb_decode",
    "build_bb_code",
    "cb_decode",
    "crossing_estimate",
    "data_qubit_model",
    "dest_branch_growth",
    "event_weights",
    "kernel_basis_mod2",
    "load_code_spec",
    "load_detector_model",
    "load_matrix",
    "logical_failure",
    "mat_vec_mod2",
    "non_dest_branch_growth",
    "phenomenological_model",
    "quotient_basis",
    "rank_mod2",
    "run_experiment",
    "sample_chunk",
    "save_detector_model",
    "save_matrix",
    "weight_1_errors",
]

# the parameters of the decoder's stage API and entry points; perfbench's
# tracer binds the entry points' arguments by name
PARAMETERS = [
    (cb.Cluster, ["m", "syndrome", "event_weights"]),
    (cb.weight_1_errors, ["cluster", "stats"]),
    (cb.non_dest_branch_growth, ["tcts", "cluster", "weight", "params", "stats"]),
    (cb.dest_branch_growth, ["tcts", "cluster", "weight", "params", "stats"]),
    (cb.run_schedule, [
        "syndrome", "params", "m", "steps", "budget_for_step", "event_weights", "stats",
    ]),
    (cb.cb_decode, ["syndrome", "params", "m", "stats"]),
    (bp_cb_decode, [
        "syndrome", "params", "model", "max_iters", "decoder", "stats", "bp_result",
    ]),
]


# the values a BP result stores; marginals and llrs are computed from posterior
BP_RESULT_FIELDS = ["posterior", "hard_decision", "converged", "iterations"]

# the values a built code stores; n and k are computed from hx and logical_x
CSS_CODE_FIELDS = ["hx", "hz", "logical_x", "logical_z", "distance"]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(cbdecode.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in cbdecode.__all__:
        assert getattr(cbdecode, name) is not None


def test_the_decoder_api_takes_the_pinned_parameters():
    for fn, expected in PARAMETERS:
        assert list(inspect.signature(fn).parameters) == expected, fn.__name__


def test_a_bp_result_stores_the_pinned_fields():
    assert [f.name for f in dataclasses.fields(cbdecode.BPResult)] == BP_RESULT_FIELDS


def test_a_css_code_stores_the_pinned_fields(bb72):
    assert [f.name for f in dataclasses.fields(cbdecode.CSSCode)] == CSS_CODE_FIELDS
    assert (bb72.n, bb72.k) == (bb72.hx.cols, len(bb72.logical_x))
    for name in ("n", "k"):
        with pytest.raises(AttributeError):
            setattr(bb72, name, 5)
