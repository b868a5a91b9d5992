import cbdecode

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
    "PauliError",
    "STANDARD_CODES",
    "Shot",
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
    "required_shots",
    "run_experiment",
    "sample_depolarizing",
    "sample_shot",
    "save_detector_model",
    "save_matrix",
    "shot_rng",
    "weight_1_errors",
]


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC_NAMES) == 41
    assert sorted(cbdecode.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in cbdecode.__all__:
        assert getattr(cbdecode, name) is not None
