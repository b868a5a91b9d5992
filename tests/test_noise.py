import numpy as np
import pytest

from cbdecode.gf2 import mat_vec_mod2
from cbdecode.noise import (
    DemParseError,
    DetectorModel,
    data_qubit_model,
    load_detector_model,
    phenomenological_model,
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
    err = sample_depolarizing(8, 0.0, rng)
    assert not err.x_part.any() and not err.z_part.any()
    err = sample_depolarizing(1, 1.0, rng)
    assert err.x_part[0] or err.z_part[0]


def test_depolarizing_rate_within_confidence_interval():
    # fraction of non-identity qubits ~ Binomial(n, p); 99% CI at n = 10^4
    n, p = 10_000, 0.3
    rng = np.random.default_rng(123)
    err = sample_depolarizing(n, p, rng)
    frac = float((err.x_part | err.z_part).mean())
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 2.58 * sigma + 0.008


def test_depolarizing_xyz_split():
    # conditioned on an error, X/Y/Z are equiprobable; Pr[x_part] = 2p/3
    n, p = 30_000, 0.4
    rng = np.random.default_rng(7)
    err = sample_depolarizing(n, p, rng)
    x_rate = float(err.x_part.mean())
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


def test_phenomenological_rejects_zero_rounds(bb72):
    with pytest.raises(ValueError):
        phenomenological_model(bb72, 0.01, 0.01, 0)


def test_sample_shot_invariants(bb72):
    model = phenomenological_model(bb72, 0.04, 0.04, 3)
    for i in range(25):
        shot = sample_shot(model, shot_rng(5, i))
        assert np.array_equal(
            shot.syndrome, mat_vec_mod2(model.noise_matrix, shot.mechanisms)
        )


def test_sample_shot_trivial_priors(bb72):
    mx, _ = data_qubit_model(bb72, 0.0)
    shot = sample_shot(mx, shot_rng(1, 1))
    assert not shot.syndrome.any() and not shot.mechanisms.any()


def test_sample_shot_mean_syndrome_weight(bb72):
    # exact odd-parity probability per detector: (1 - prod(1 - 2 p_i)) / 2
    model = phenomenological_model(bb72, 0.05, 0.05, 3)
    dense = model.noise_matrix.to_dense().astype(bool)
    expected = 0.0
    for r in range(dense.shape[0]):
        probs = model.priors[dense[r]]
        expected += (1.0 - np.prod(1.0 - 2.0 * probs)) / 2.0
    n_shots = 4000
    total = 0
    for i in range(n_shots):
        total += int(sample_shot(model, shot_rng(11, i)).syndrome.sum())
    mean = total / n_shots
    sigma = np.sqrt(expected / n_shots)  # crude Poisson-style bound
    assert abs(mean - expected) < 4 * sigma + 0.05 * expected


def test_shot_streams_are_reproducible(bb72):
    mx, _ = data_qubit_model(bb72, 0.1)
    a = [sample_shot(mx, shot_rng(42, i)).mechanisms for i in range(10)]
    b = [sample_shot(mx, shot_rng(42, i)).mechanisms for i in range(10)]
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    c = sample_shot(mx, shot_rng(43, 0)).mechanisms
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
        ("error 0.1 D0\nerror 0.2 D0\n", "duplicate"),
    ],
)
def test_dem_parse_errors_carry_line_numbers(tmp_path, content, fragment):
    path = tmp_path / "bad.dem"
    path.write_text(content)
    with pytest.raises(DemParseError) as err:
        load_detector_model(str(path))
    assert fragment in str(err.value)
    assert ".dem:" in str(err.value)


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
