import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbdecode import cli, harness
from cbdecode.bbcodes import STANDARD_CODES
from cbdecode.cli import main
from cbdecode.harness import CSV_COLUMNS, ExperimentConfig, ExperimentResult
from cbdecode.gf2 import load_matrix
from cbdecode.noise import data_qubit_model, load_detector_model, phenomenological_model


def test_build_code_registry_name(tmp_path, capsys):
    out = tmp_path / "bb72"
    assert main(["build-code", "bb72", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "n=72 k=12" in captured
    hx = load_matrix(str(out) + ".hx.txt")
    assert hx.rows == 36 and hx.cols == 72


def test_build_code_spec_file(tmp_path, capsys):
    spec = tmp_path / "code.yaml"
    spec.write_text("l: 6\nm: 6\na_terms: [x^3, y, y^2]\nb_terms: [y^3, x, x^2]\n")
    assert main(["build-code", str(spec), "--out", str(tmp_path / "c")]) == 0
    assert "n=72 k=12" in capsys.readouterr().out


def test_build_code_degenerate_spec(tmp_path, capsys):
    spec = tmp_path / "deg.yaml"
    spec.write_text("l: 1\nm: 1\na_terms: [x^3, y, y^2]\nb_terms: [y^3, x, x^2]\n")
    assert main(["build-code", str(spec), "--out", str(tmp_path / "d")]) == 0
    assert "n=2 k=0" in capsys.readouterr().out


@pytest.mark.parametrize("key, value", [
    ("l", "null"), ("m", "6.5"), ("distance", "six"), ("a_terms", "[3, y, y^2]"), ("b_terms", "y^3"),
], ids=["l-null", "m-float", "distance-string", "a_terms-number", "b_terms-string"])
def test_build_code_rejects_a_malformed_spec(tmp_path, capsys, key, value):
    fields = {"l": 6, "m": 6, "a_terms": "[x^3, y, y^2]", "b_terms": "[y^3, x, x^2]", key: value}
    spec = tmp_path / "bad.yaml"
    spec.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
    assert main(["build-code", str(spec), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith(f"build-code: code spec key '{key}'")
    assert not (tmp_path / "b.hx.txt").exists()


def test_build_code_missing_file(tmp_path, capsys):
    assert main(["build-code", str(tmp_path / "nope.yaml"), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err != ""


def test_build_code_reports_an_unwritable_output(tmp_path, capsys):
    assert main(["build-code", "bb72", "--out", str(tmp_path / "missing" / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("build-code: ") and "missing" in err


def test_build_noise_data_qubit(tmp_path, capsys):
    out = tmp_path / "m.dem"
    assert main(["build-noise", "--code", "bb72", "--p", "0.06", "--out", str(out)]) == 0
    model = load_detector_model(str(out))
    assert model.noise_matrix.rows == 36 and model.noise_matrix.cols == 72
    assert np.allclose(model.priors, 0.04)


def test_build_noise_phenomenological(tmp_path):
    out = tmp_path / "ph.dem"
    assert main([
        "build-noise", "--code", "bb72", "--model", "phenomenological",
        "--p", "0.03", "--rounds", "3", "--out", str(out),
    ]) == 0
    model = load_detector_model(str(out))
    assert model.noise_matrix.rows == 3 * 36
    assert model.noise_matrix.cols == 3 * 72 + 2 * 36


def run_config(tmp_path, **overrides):
    lines = {
        "code": "bb72",
        "noise": "data-qubit",
        "p": 0.0,
        "decoder": "bp+cb",
        "max_gr": 6,
        "max_br": 10,
        "max_tcts": 3,
        "max_shots": 40,
        "max_failures": 100,
        "seed": 3,
    }
    lines.update(overrides)
    cfg = tmp_path / "run.yaml"
    cfg.write_text("\n".join(f"{k}: {v}" for k, v in lines.items()) + "\n")
    return cfg


def test_run_zero_error_rate(tmp_path, capsys):
    cfg = run_config(tmp_path)
    csv = tmp_path / "r.csv"
    assert main(["run", str(cfg), "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out
    assert csv.exists()


def test_run_flag_overrides(tmp_path, capsys):
    cfg = run_config(tmp_path, max_shots=30)
    assert main(["run", str(cfg), "--p", "0.05", "--seed", "9", "--shots", "25"]) == 0
    out = capsys.readouterr().out
    assert "p=0.05" in out and "shots=25" in out


def test_run_unreadable_dem(tmp_path, capsys):
    bad = tmp_path / "bad.dem"
    bad.write_text("error 2.0 D0\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"noise: circuit-file\ndem: {bad}\nmax_shots: 5\n")
    assert main(["run", str(cfg)]) == 2
    assert "outside (0, 1)" in capsys.readouterr().err


def test_run_rejects_a_dem_path_that_is_not_a_string(tmp_path):
    # open(0) read standard input as the detector model and the run exited 0
    cfg = tmp_path / "c.yaml"
    cfg.write_text("noise: circuit-file\ndem: 0\nmax_shots: 5\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with open(os.devnull) as stdin:
        proc = subprocess.run([sys.executable, "-m", "cbdecode.cli", "run", str(cfg)],
                              stdin=stdin, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "run: config key 'dem' cannot take the value 0: dem must be a string\n"
    assert proc.stdout == ""


def test_run_reports_an_unwritable_csv(tmp_path, capsys):
    cfg = run_config(tmp_path, max_shots=3)
    assert main(["run", str(cfg), "--csv", str(tmp_path / "missing" / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "missing" in err


def test_run_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2


def test_run_rejects_unknown_keys(tmp_path, capsys):
    cfg = run_config(tmp_path, max_brr=36, bp_iter=3)
    assert main(["run", str(cfg)]) == 2
    assert "unknown config keys: bp_iter, max_brr" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("max_shots", "null"), ("p", "null"), ("seed", "null"), ("max_gr", "[1]"), ("p", "abc"),
    ("name", "null"), ("name", "[a, b]"), ("noise", "null"), ("decoder", "[cb]"), ("sector", "1"),
    # integer keys take integers only: these were truncated or read as 1
    ("seed", "1.5"), ("max_shots", "200.9"), ("max_failures", "true"), ("max_gr", "6.7"),
    ("bp_iters", "2.5"),
])
def test_run_rejects_a_value_of_the_wrong_type(tmp_path, capsys, key, value):
    cfg = run_config(tmp_path, **{key: value})
    assert main(["run", str(cfg)]) == 2
    assert f"run: config key '{key}' cannot take the value" in capsys.readouterr().err


def test_run_rejects_cb_with_no_schedule_step(tmp_path, capsys):
    cfg = run_config(tmp_path, decoder="cb", max_gr=1, p=0.05)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "run: decoder cb needs max_gr >= 2" in captured.err and "shots=" not in captured.out


def test_run_rejects_a_negative_bp_iteration_cap(tmp_path, capsys):
    cfg = run_config(tmp_path, bp_iters=-5, p=0.05)
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "run: bp_iters must be >= 0" in captured.err and "shots=" not in captured.out



def test_run_rejects_a_nan_error_rate(tmp_path, capsys):
    cfg = run_config(tmp_path, noise="phenomenological", rounds=2, p=0.01)
    assert main(["run", str(cfg), "--p", "nan", "--shots", "100"]) == 2
    captured = capsys.readouterr()
    assert "run: p must lie in [0, 0.75]" in captured.err and "shots=" not in captured.out


def _no_model_built(monkeypatch):
    def build(spec):
        raise AssertionError("a code was built for a run that was rejected")

    monkeypatch.setattr(harness, "build_bb_code", build)


def test_run_rejects_rounds_for_data_qubit_noise(tmp_path, capsys, monkeypatch):
    # a one-round rate divided by 3 would be reported as the per-cycle rate
    _no_model_built(monkeypatch)
    assert main(["run", str(run_config(tmp_path, p=0.05, rounds=3))]) == 2
    captured = capsys.readouterr()
    assert "run: data-qubit noise has one round" in captured.err and "shots=" not in captured.out


def test_build_noise_rejects_rounds_for_data_qubit_noise(tmp_path, capsys, monkeypatch):
    _no_model_built(monkeypatch)
    out = tmp_path / "m.dem"
    flags = ["--code", "bb72", "--p", "0.06", "--rounds", "3", "--out", str(out)]
    assert main(["build-noise"] + flags) == 2
    assert capsys.readouterr().err.startswith("build-noise: data-qubit noise has one round")
    assert not out.exists()


@pytest.mark.parametrize("source, extra, error", [
    ("noise: circuit-file\ndem: m.dem\n", "p: 0.02\n", "circuit-file noise takes its priors"),
    ("noise: circuit-file\ndem: m.dem\n", "", "circuit-file noise takes its priors"),
    ("code: bb72\n", "p: 0.05\nq: 0.3\n", "data-qubit noise has no measurement error rate q"),
], ids=["circuit-file-p", "circuit-file-p-flag", "data-qubit-q"])
def test_run_rejects_a_noise_parameter_the_model_ignores(tmp_path, capsys, source, extra, error):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{source}{extra}max_shots: 5\n")
    flags = [] if extra else ["--p", "0.02"]
    assert main(["run", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"run: {error}") and "shots=" not in captured.out


def test_build_noise_rejects_q_for_data_qubit_noise(tmp_path, capsys, monkeypatch):
    _no_model_built(monkeypatch)
    out = tmp_path / "m.dem"
    flags = ["--code", "bb72", "--p", "0.06", "--q", "0.3", "--out", str(out)]
    assert main(["build-noise"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("build-noise: data-qubit noise has no measurement error rate q")
    assert not out.exists()


@pytest.mark.parametrize("source, extra, error", [
    ("code: bb72\n", "p: 0.8\n", "p must lie in [0, 0.75]"),
    ("code: bb72\n", "p: .nan\n", "p must lie in [0, 0.75]"),
    ("code: bb72\nnoise: phenomenological\nrounds: 2\n", "p: 0.05\nq: 0.6\n",
     "q (p when q is unset) must lie in [0, 0.5]"),
    ("code: bb72\nnoise: phenomenological\nrounds: 2\n", "p: 0.6\n",
     "q (p when q is unset) must lie in [0, 0.5]"),
], ids=["p-high", "p-nan", "q-high", "unset-q-high"])
def test_run_rejects_an_error_rate_out_of_range(tmp_path, capsys, monkeypatch, source, extra,
                                                error):
    _no_model_built(monkeypatch)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{source}{extra}max_shots: 5\n")
    out = tmp_path / "o.csv"
    assert main(["run", str(cfg), "--csv", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"run: {error}") and "shots=" not in captured.out
    assert not out.exists()  # rejected before the CSV is opened


@pytest.mark.parametrize("flags, error", [
    (["--p", "0.9"], "p must lie in [0, 0.75]"),
    (["--model", "phenomenological", "--p", "0.05", "--q", "0.7", "--rounds", "2"],
     "q (p when q is unset) must lie in [0, 0.5]"),
], ids=["p", "q"])
def test_build_noise_rejects_an_error_rate_out_of_range(tmp_path, capsys, monkeypatch, flags,
                                                        error):
    _no_model_built(monkeypatch)
    out = tmp_path / "m.dem"
    assert main(["build-noise", "--code", "bb72", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"build-noise: {error}")
    assert not out.exists()


def test_sweep_fails_each_point_with_an_error_rate_out_of_range(tmp_path, capsys):
    out = tmp_path / "o.csv"
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.05, 0.8, 0.9]\noutput: {out}\ncodes:\n"
        "  - {name: dq, code: bb72, max_shots: 5, seed: 1}\n"
        "  - {name: ph, code: bb72, noise: phenomenological, rounds: 2, q: 0.6}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        *(f"sweep point dq p={p}: p must lie in [0, 0.75]: a prior 2p/3 above 0.5 is no "
          "noise model" for p in (0.8, 0.9)),
        *(f"sweep point ph p={p}: q (p when q is unset) must lie in [0, 0.5]"
          for p in (0.05, 0.8, 0.9)),
    ]
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("dq,data-qubit,0.05,")


def test_sweep_fails_each_point_of_an_entry_with_a_parameter_its_noise_ignores(tmp_path, capsys):
    # a circuit-file entry wrote one identical row per p, each labelled with its p
    (tmp_path / "m.dem").write_text("error 0.1 D0 L0\n")
    out = tmp_path / "o.csv"
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.02, 0.04]\noutput: {out}\ncodes:\n"
        f"  - {{name: cf, noise: circuit-file, dem: {tmp_path / 'm.dem'}}}\n"
        "  - {name: dq, code: bb72, q: 0.3}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        *(f"sweep point cf p={p}: circuit-file noise takes its priors from the file, not p"
          for p in (0.02, 0.04)),
        *(f"sweep point dq p={p}: data-qubit noise has no measurement error rate q"
          for p in (0.02, 0.04)),
    ]
    assert not out.read_text()


def test_run_rejects_a_negative_seed_flag(tmp_path, capsys, monkeypatch):
    _no_model_built(monkeypatch)
    assert main(["run", str(run_config(tmp_path, p=0.05)), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "run: seed must be >= 0" in captured.err and "shots=" not in captured.out


def test_run_rejects_a_negative_seed_from_the_environment(tmp_path, capsys, monkeypatch):
    _no_model_built(monkeypatch)
    cfg = tmp_path / "c.yaml"
    cfg.write_text("code: bb72\nnoise: data-qubit\np: 0.05\nmax_shots: 40\n")
    monkeypatch.setenv("CBDECODE_SEED", "-1")
    assert main(["run", str(cfg), "--threads", "2"]) == 2
    captured = capsys.readouterr()
    assert "run: seed must be >= 0" in captured.err and "shots=" not in captured.out


def test_run_rejects_a_non_integer_seed_from_the_environment(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("code: bb72\nnoise: data-qubit\np: 0.05\nmax_shots: 3\n")
    monkeypatch.setenv("CBDECODE_SEED", "abc")
    with monkeypatch.context() as m:
        _no_model_built(m)
        assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "run: CBDECODE_SEED must be an integer, got 'abc'" in captured.err
    assert "shots=" not in captured.out
    # a seed from the flag or the file leaves the variable unread
    assert main(["run", str(cfg), "--seed", "4"]) == 0
    cfg.write_text("code: bb72\nnoise: data-qubit\np: 0.05\nmax_shots: 3\nseed: 4\n")
    assert main(["run", str(cfg)]) == 0
    assert "shots=3" in capsys.readouterr().out


def test_sweep_rejects_a_non_integer_seed_from_the_environment(tmp_path, capsys, monkeypatch):
    seen = []

    def fake_run(config, threads=1):
        seen.append(config.seed)
        return ExperimentResult(1, 0, 0.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setenv("CBDECODE_SEED", "1.5")
    sweep = tmp_path / "s.yaml"
    body = (f"probabilities: [0.05]\noutput: {tmp_path / 'o.csv'}\ncodes:\n"
            "  - {name: own, code: bb72, seed: 3}\n")
    sweep.write_text(body + "  - {name: env, code: bb72}\n")
    assert main(["sweep", str(sweep)]) == 2
    assert "sweep: CBDECODE_SEED must be an integer, got '1.5'" in capsys.readouterr().err
    assert seen == []
    # --seed, or a seed in every entry, leaves the variable unread
    assert main(["sweep", str(sweep), "--seed", "7"]) == 0
    sweep.write_text(body)
    assert main(["sweep", str(sweep)]) == 0
    assert seen == [3, 7, 3]


@pytest.mark.parametrize("sector", ["z", "both"])
@pytest.mark.parametrize("noise", ["phenomenological", "circuit-file"])
def test_run_rejects_a_sector_the_noise_model_lacks(tmp_path, capsys, monkeypatch, noise, sector):
    _no_model_built(monkeypatch)
    source = f"dem: {tmp_path / 'm.dem'}" if noise == "circuit-file" else "code: bb72"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{source}\nnoise: {noise}\np: 0.03\nrounds: 2\nsector: {sector}\n")
    assert main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"run: {noise} noise has only sector x" in captured.err
    assert "shots=" not in captured.out


def test_sweep_fails_each_point_of_an_entry_with_a_sector_its_noise_lacks(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.02, 0.03]\noutput: {tmp_path / 'o.csv'}\ncodes:\n"
        "  - {name: ph, code: bb72, noise: phenomenological, rounds: 2, sector: z}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"sweep point ph p={p}: phenomenological noise has only sector x"
                   for p in (0.02, 0.03)]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("run_*.yaml")), ids=lambda p: p.name)
def test_shipped_run_configs_run(path, capsys):
    assert main(["run", str(path), "--shots", "3"]) == 0
    assert "shots=3" in capsys.readouterr().out


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("sweep_*.yaml")), ids=lambda p: p.name)
def test_shipped_sweep_entries_build(path):
    for entry in cli._load_mapping(str(path), "sweep spec")["codes"]:
        assert cli._build_config(entry).label() == entry["name"]


def test_build_config_keeps_the_dataclass_defaults():
    assert cli._build_config({"code": "bb72", "seed": 0}) == ExperimentConfig(
        noise="data-qubit", code_spec=STANDARD_CODES["bb72"], seed=0
    )


def test_library_and_run_file_agree_on_phenomenological_rounds():
    config = ExperimentConfig(noise="phenomenological", p=0.01, code_spec=STANDARD_CODES["bb72"])
    assert config.rounds == 6  # the code's distance
    assert cli._build_config({"code": "bb72", "noise": "phenomenological", "p": 0.01}) == config


def test_sweep_single_point_matches_run(tmp_path, capsys):
    run_cfg = run_config(tmp_path, p=0.05, max_shots=60)
    run_csv = tmp_path / "run.csv"
    assert main(["run", str(run_cfg), "--csv", str(run_csv)]) == 0
    sweep = tmp_path / "sweep.yaml"
    sweep_csv = tmp_path / "sweep.csv"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {sweep_csv}\n"
        "codes:\n"
        "  - {name: bb72run, code: bb72, decoder: bp+cb, max_gr: 6, max_br: 10, "
        "max_tcts: 3, max_shots: 60, max_failures: 100, seed: 3}\n"
    )
    assert main(["sweep", str(sweep)]) == 0
    capsys.readouterr()
    run_row = run_csv.read_text().strip().splitlines()[1].split(",")
    sweep_row = sweep_csv.read_text().strip().splitlines()[1].split(",")
    # identical except the label and the timing column
    assert run_row[1:-1] == sweep_row[1:-1]
    series = tmp_path / "sweep_bb72run.dat"
    assert series.exists()


def test_sweep_empty_probabilities(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text("probabilities: []\ncodes: [{code: bb72}]\n")
    assert main(["sweep", str(sweep)]) == 2


def test_sweep_requires_increasing_probabilities(tmp_path):
    sweep = tmp_path / "s.yaml"
    sweep.write_text("probabilities: [0.05, 0.04]\ncodes: [{code: bb72}]\n")
    assert main(["sweep", str(sweep)]) == 2


@pytest.mark.parametrize("codes", ["[bb72]", "bb72", "{code: bb72}"])
def test_sweep_rejects_codes_that_are_not_a_list_of_mappings(tmp_path, capsys, codes):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(f"probabilities: [0.05]\ncodes: {codes}\n")
    assert main(["sweep", str(sweep)]) == 2
    assert capsys.readouterr().err.startswith("sweep: 'codes' must be a list of mappings")


def test_sweep_partial_failure(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.02, 0.04]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: broken, noise: circuit-file, dem: /does/not/exist.dem, max_shots: 5}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    assert "sweep point" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    "{name: ok, code: bb72, max_shots: 3}",
    # q above 1/2 builds no config, so each of the entry's points fails
    "{name: broken, code: bb72, noise: phenomenological, rounds: 2, q: 0.6, max_shots: 3}",
], ids=["csv", "series"])
def test_sweep_reports_an_unwritable_output(tmp_path, capsys, entry):
    # the first write is the CSV row of a point, or the series file of an
    # entry whose points all fail
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.02]\noutput: {tmp_path / 'missing' / 's.csv'}\ncodes:\n  - {entry}\n"
    )
    assert main(["sweep", str(sweep)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("sweep: ") and "missing" in err[-1]


def test_sweep_entry_honours_bp_iters(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    out = tmp_path / "o.csv"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {out}\n"
        "codes:\n"
        "  - {name: it1, code: bb72, bp_iters: 1, max_shots: 100, max_failures: null, seed: 3}\n"
        "  - {name: it30, code: bb72, bp_iters: 30, max_shots: 100, max_failures: null, seed: 3}\n"
    )
    assert main(["sweep", str(sweep)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    failures = CSV_COLUMNS.index("failures")
    # with one BP iteration CB runs on more shots and decodes differently
    assert rows[0][failures] != rows[1][failures]


def test_sweep_entry_without_code_is_a_point_error(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: nocode, max_shots: 5}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    assert "sweep point nocode p=0.05: config needs a 'code' entry" in capsys.readouterr().err


def test_sweep_entry_with_unknown_key_is_a_point_error(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: typo, code: bb72, max_brr: 36, max_shots: 5}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    assert "sweep point typo p=0.05: unknown config keys: max_brr" in capsys.readouterr().err


def test_sweep_entry_with_a_null_value_is_a_point_error(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: nulls, code: bb72, max_shots: null}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    err = capsys.readouterr().err
    assert "sweep point nulls p=0.05: config key 'max_shots' cannot take the value None" in err


def test_sweep_entry_with_a_null_name_is_a_point_error(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: null, code: bb72, max_shots: 5}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    assert "config key 'name' cannot take the value None" in capsys.readouterr().err
    assert not (tmp_path / "o_None.dat").exists()


def test_sweep_point_error_of_an_unnamed_entry_names_its_index(tmp_path, capsys):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: nocode, max_shots: 5}\n"
        "  - {name: null, code: bb72, max_shots: 5}\n"
    )
    assert main(["sweep", str(sweep)]) == 1
    err = capsys.readouterr().err
    assert "sweep point nocode p=0.05: config needs a 'code' entry" in err
    assert "sweep point codes[1] p=0.05: config key 'name' cannot take the value None" in err
    assert "None p=" not in err


# ["0.05"] and [true] were converted by float() and swept
@pytest.mark.parametrize("probabilities", ["[null]", "0.05", "[0.05, abc]", '["0.05"]', "[true]"])
def test_sweep_rejects_probabilities_that_are_not_numbers(tmp_path, capsys, probabilities):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(f"probabilities: {probabilities}\ncodes: [{{code: bb72}}]\n")
    assert main(["sweep", str(sweep)]) == 2
    assert capsys.readouterr().err == "sweep: 'probabilities' must be a list of numbers\n"


@pytest.mark.parametrize("output", ["null", "5"])
def test_sweep_rejects_an_output_that_is_not_a_path(tmp_path, capsys, output):
    sweep = tmp_path / "s.yaml"
    sweep.write_text(f"probabilities: [0.05]\noutput: {output}\ncodes: [{{code: bb72}}]\n")
    assert main(["sweep", str(sweep)]) == 2
    assert capsys.readouterr().err.startswith("sweep: 'output' must be a file path")


@pytest.mark.parametrize("codes, label", [
    ("[{code: bb72}, {code: bb72, decoder: cb}]", "bb72"),
    # a spec file without a name is labelled by its l and m
    ("[{code: SPEC}, {code: SPEC, decoder: cb}]", "bb_l6_m6"),
], ids=["registry-code", "spec-file"])
def test_sweep_rejects_entries_sharing_a_label(tmp_path, capsys, codes, label):
    spec = tmp_path / "code.yaml"
    spec.write_text("l: 6\nm: 6\na_terms: [x^3, y, y^2]\nb_terms: [y^3, x, x^2]\n")
    sweep = tmp_path / "s.yaml"
    out = tmp_path / "o.csv"
    codes = codes.replace("SPEC", str(spec))
    sweep.write_text(f"probabilities: [0.05]\noutput: {out}\ncodes: {codes}\n")
    assert main(["sweep", str(sweep)]) == 2
    assert f"entries share the label {label}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_defaults_and_seed_precedence(tmp_path, capsys, monkeypatch):
    seen = []

    def fake_run(config, threads=1):
        seen.append(config)
        return ExperimentResult(1, 0, 0.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setenv("CBDECODE_SEED", "12")
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        "probabilities: [0.05]\n"
        f"output: {tmp_path / 'o.csv'}\n"
        "codes:\n"
        "  - {name: own, code: bb72, seed: 3}\n"
        "  - {name: flag, code: bb72}\n"
    )
    assert main(["sweep", str(sweep)]) == 0
    assert main(["sweep", str(sweep), "--seed", "7"]) == 0
    capsys.readouterr()
    assert [c.seed for c in seen] == [3, 12, 3, 7]
    assert {c.max_shots for c in seen} == {100_000}
    assert {c.p for c in seen} == {0.05}


def test_env_var_seed_used_as_default(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("code: bb72\nnoise: data-qubit\np: 0.05\nmax_shots: 40\nmax_failures: 100\n")
    monkeypatch.setenv("CBDECODE_SEED", "12")
    assert main(["run", str(cfg)]) == 0
    first = capsys.readouterr().out
    monkeypatch.setenv("CBDECODE_SEED", "13")
    assert main(["run", str(cfg)]) == 0
    second = capsys.readouterr().out
    assert "failures=" in first
    # explicit flag beats the environment; counts match the env-var run
    monkeypatch.setenv("CBDECODE_SEED", "12")
    assert main(["run", str(cfg), "--seed", "13"]) == 0
    third = capsys.readouterr().out
    strip = lambda out: out.split(" mean_decode_us=")[0]
    assert strip(third) == strip(second)


def test_dem_info(tmp_path, capsys):
    dem = tmp_path / "m.dem"
    dem.write_text("error 0.1 D0 D1\nerror 0.2 D1 L0\n")
    assert main(["dem-info", str(dem)]) == 0
    out = capsys.readouterr().out
    assert "detectors=2 mechanisms=2 observables=1" in out
    assert main(["dem-info", str(tmp_path / "nope.dem")]) == 2


@pytest.mark.parametrize("command", ["build-code", "build-noise", "run", "sweep", "dem-info"])
def test_every_command_reports_a_missing_input(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.yaml")
    argv = {
        "build-code": ["build-code", missing, "--out", str(tmp_path / "c")],
        "build-noise": ["build-noise", "--code", missing, "--p", "0.05", "--out", str(tmp_path / "m")],
        "run": ["run", missing],
        "sweep": ["sweep", missing],
        "dem-info": ["dem-info", missing],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ") and "nope.yaml" in err


def _record_runs(monkeypatch):
    calls = []

    def fake_run(config, threads=1):
        calls.append(config)
        return ExperimentResult(1, 0, 0.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return calls


def test_run_checks_its_csv_before_any_shot(tmp_path, capsys, monkeypatch):
    calls = _record_runs(monkeypatch)
    cfg = run_config(tmp_path)
    assert main(["run", str(cfg), "--csv", str(tmp_path / "missing" / "r.csv")]) == 2
    assert capsys.readouterr().err.startswith("run: ")
    assert calls == []


@pytest.mark.parametrize("output, name, missing", [
    ("missing/s.csv", "ok", "missing"), ("s.csv", "sub/ok", "s_sub"),
], ids=["csv", "series"])
def test_sweep_checks_its_outputs_before_any_point(tmp_path, capsys, monkeypatch, output, name,
                                                   missing):
    # the series file of the entry named sub/ok is s_sub/ok.dat, in a missing directory
    calls = _record_runs(monkeypatch)
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.02, 0.04]\noutput: {tmp_path / output}\n"
        f"codes:\n  - {{name: first, code: bb72}}\n  - {{name: {name}, code: bb72}}\n"
    )
    assert main(["sweep", str(sweep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sweep: ") and missing in err
    assert calls == []


def test_sweep_builds_each_entry_once(tmp_path, capsys, monkeypatch):
    _record_runs(monkeypatch)
    resolved = []
    resolve = cli._resolve_code
    monkeypatch.setattr(cli, "_resolve_code", lambda value: resolved.append(value) or resolve(value))
    sweep = tmp_path / "s.yaml"
    sweep.write_text(
        f"probabilities: [0.02, 0.04, 0.06]\noutput: {tmp_path / 'o.csv'}\n"
        "codes:\n  - {name: a, code: bb72}\n  - {name: b, code: bb72, decoder: cb}\n"
    )
    assert main(["sweep", str(sweep)]) == 0
    capsys.readouterr()
    assert resolved == ["bb72", "bb72"]


@pytest.mark.parametrize("flags", [
    ["--model", "phenomenological", "--p", "0.03", "--q", "0", "--rounds", "2"], ["--p", "0"],
], ids=["q-zero", "p-zero"])
def test_build_noise_rejects_a_zero_prior(tmp_path, capsys, flags):
    out = tmp_path / "m.dem"
    assert main(["build-noise", "--code", "bb72", "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("build-noise: mechanism column ") and "prior 0.0" in err
    assert not out.exists()


def test_build_noise_rejects_duplicate_columns(tmp_path, capsys):
    # l = m = 1 gives n = 2 qubits on one check: both columns touch detector
    # 0 and no observable, two statements the loader refuses as duplicates
    spec = tmp_path / "deg.yaml"
    spec.write_text("l: 1\nm: 1\na_terms: [x, y, x^2]\nb_terms: [y, x, y^2]\n")
    out = tmp_path / "m.dem"
    assert main(["build-noise", "--code", str(spec), "--p", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("build-noise: mechanism columns 0 and 1 have the same detectors")
    assert not out.exists()


@pytest.mark.parametrize("flags, expected", [
    (["--model", "phenomenological"], lambda code: phenomenological_model(code, 0.03, 0.03, 6)),
    (["--sector", "z"], lambda code: data_qubit_model(code, 0.03)[1]),
], ids=["phenomenological", "sector-z"])
def test_build_noise_shares_the_run_file_defaults(tmp_path, capsys, bb72, flags, expected):
    # with no --rounds or --q, a phenomenological model takes the code's
    # distance (6 for bb72) and q = p
    out = tmp_path / "m.dem"
    assert main(["build-noise", "--code", "bb72", "--p", "0.03", "--out", str(out)] + flags) == 0
    assert load_detector_model(str(out)) == expected(bb72)


def test_build_noise_rejects_sector_z_for_phenomenological_noise(tmp_path, capsys):
    out = tmp_path / "m.dem"
    flags = ["--model", "phenomenological", "--sector", "z", "--p", "0.03", "--out", str(out)]
    assert main(["build-noise", "--code", "bb72"] + flags) == 2
    assert capsys.readouterr().err.startswith("build-noise: phenomenological noise has only sector x")
    assert not out.exists()


@pytest.mark.parametrize("dem", ["nope.dem", "bad.dem"], ids=["missing", "malformed"])
def test_pooled_run_reports_a_bad_dem(tmp_path, dem):
    # the shot runner is built before the pool starts, so a bad input
    # fails as in a serial run instead of killing each worker as it starts
    (tmp_path / "bad.dem").write_text("error 2.0 D0\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"noise: circuit-file\ndem: {tmp_path / dem}\nmax_shots: 5\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "cbdecode.cli", "run", str(cfg), "--threads", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("run: ") and dem in proc.stderr


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_fewer_than_one_thread_before_its_csv_opens(tmp_path, capsys, monkeypatch,
                                                                threads):
    calls = _record_runs(monkeypatch)
    _no_model_built(monkeypatch)
    csv = tmp_path / "r.csv"
    assert main(["run", str(run_config(tmp_path, p=0.05)), "--csv", str(csv),
                 "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert "run: threads must be >= 1" in captured.err and "shots=" not in captured.out
    assert calls == [] and not csv.exists()


def test_sweep_rejects_fewer_than_one_thread_before_its_first_point(tmp_path, capsys,
                                                                    monkeypatch):
    calls = _record_runs(monkeypatch)
    _no_model_built(monkeypatch)
    sweep = tmp_path / "s.yaml"
    sweep.write_text(f"probabilities: [0.02, 0.04]\noutput: {tmp_path / 's.csv'}\n"
                     "codes:\n  - {code: bb72}\n")
    assert main(["sweep", str(sweep), "--threads", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "sweep: threads must be >= 1\n" and captured.out == ""
    assert calls == [] and os.listdir(tmp_path) == ["s.yaml"]
