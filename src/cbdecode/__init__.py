"""Closed-branch decoding for quantum LDPC codes."""

from .bbcodes import BBCodeSpec, CSSCode, Monomial, STANDARD_CODES, build_bb_code, load_code_spec
from .bp import BPDecoder, BPResult, bp_cb_decode, event_weights
from .cb import (
    CBParams,
    ClosedBranch,
    Cluster,
    DecodeStats,
    cb_decode,
    dest_branch_growth,
    non_dest_branch_growth,
    weight_1_errors,
)
from .gf2 import (
    BinaryMatrix,
    kernel_basis_mod2,
    load_matrix,
    mat_vec_mod2,
    quotient_basis,
    rank_mod2,
    save_matrix,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    crossing_estimate,
    logical_failure,
    run_experiment,
)
from .noise import (
    DetectorModel,
    data_qubit_model,
    load_detector_model,
    phenomenological_model,
    sample_chunk,
    save_detector_model,
)

__version__ = "0.1.0"

__all__ = [
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
