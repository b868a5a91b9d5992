"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
take a few minutes in total at desk scale.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cbdecode.bbcodes import STANDARD_CODES, build_bb_code
from cbdecode.bp import BPDecoder, bp_cb_decode
from cbdecode.cb import CBParams, DecodeStats, cb_decode
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2, vec_from_support
from cbdecode.harness import ExperimentConfig, crossing_estimate, run_experiment
from cbdecode.noise import (
    load_detector_model,
    phenomenological_model,
    sample_chunk,
    save_detector_model,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# --- 1: code construction ----------------------------------------------------


def test_criterion_01_code_construction():
    t0 = time.perf_counter()
    expected = {"bb72": (72, 12), "bb108": (108, 8), "bb144": (144, 12)}
    problems = []
    for name, (n, k) in expected.items():
        code = build_bb_code(STANDARD_CODES[name])
        if (code.n, code.k) != (n, k):
            problems.append(f"{name}: got ({code.n}, {code.k})")
        hx = code.hx.to_dense().astype(np.uint32)
        hz = code.hz.to_dense().astype(np.uint32)
        if ((hx @ hz.T) & 1).any():
            problems.append(f"{name}: hx hz^T != 0")
        if set(code.hx.row_weights()) != {6} or set(code.hz.row_weights()) != {6}:
            problems.append(f"{name}: row weights off")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s")
    _report(1, "code-construction", not problems,
            f"three codes in {elapsed * 1000:.0f}ms" if not problems else "; ".join(problems))


# --- 2: oracle equivalence on all weight-<=2 errors ---------------------------


def test_criterion_02_oracle_equivalence():
    code = build_bb_code(STANDARD_CODES["bb72"])
    m = code.hz
    n = m.cols
    col_masks = []
    for c in range(n):
        x = 0
        for r in m.col_support[c]:
            x |= 1 << r
        col_masks.append(x)
    # independent oracle: exhaustive search over all errors of weight <= 3
    oracle: dict[int, tuple[int, int]] = {}
    for w in (1, 2, 3):
        for combo in itertools.combinations(range(n), w):
            key = 0
            for c in combo:
                key ^= col_masks[c]
            if key in oracle:
                mw, cnt = oracle[key]
                if w == mw:
                    oracle[key] = (mw, cnt + 1)
            else:
                oracle[key] = (w, 1)

    params = CBParams(max_gr=6, max_br=125, max_tcts=3)
    t0 = time.perf_counter()
    patterns = unmatched = suboptimal = unique_cases = 0
    for w in (1, 2):
        for combo in itertools.combinations(range(n), w):
            patterns += 1
            e = vec_from_support(n, combo)
            s = mat_vec_mod2(m, e)
            out = cb_decode(s, params, m)
            if not np.array_equal(mat_vec_mod2(m, out), s):
                unmatched += 1
                continue
            key = 0
            for r in np.flatnonzero(s):
                key |= 1 << int(r)
            min_w, count = oracle[key]
            if count == 1:
                unique_cases += 1
                if int(out.sum()) != min_w:
                    suboptimal += 1
    elapsed = time.perf_counter() - t0
    ok = patterns == 2628 and unmatched == 0 and suboptimal == 0
    _report(2, "oracle-equivalence", ok,
            f"{patterns} patterns, {unmatched} unmatched, {suboptimal} suboptimal "
            f"of {unique_cases} unique-minimum cases, {elapsed:.1f}s")


# --- 3 and 4: soundness suite with budget instrumentation ---------------------


def _synthetic_circuit_dem(tmp_path) -> str:
    """A circuit-level-shaped file: phenomenological columns plus weight-<=5
    propagated mechanisms, on the bb72 layout."""
    code = build_bb_code(STANDARD_CODES["bb72"])
    base = phenomenological_model(code, 0.015, 0.015, 3)
    rng = np.random.default_rng(2024)
    lines = []
    det_support, obs_support = base.noise_matrix.col_support, base.observables.col_support
    seen = set()
    for c in range(base.noise_matrix.cols):
        dets = " ".join(f"D{d}" for d in det_support[c])
        obs = " ".join(f"L{o}" for o in obs_support[c])
        seen.add(det_support[c])
        lines.append(f"error {float(base.priors[c])!r} {dets} {obs}".strip())
    n_det = base.noise_matrix.rows
    added = 0
    while added < 150:
        k = int(rng.integers(4, 6))
        dets = tuple(sorted(rng.choice(n_det, size=k, replace=False).tolist()))
        if dets in seen:
            continue
        seen.add(dets)
        det_str = " ".join(f"D{d}" for d in dets)
        lines.append(f"error {float(rng.uniform(0.001, 0.01))!r} {det_str}")
        added += 1
    path = tmp_path / "circuit72.dem"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def soundness_results(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("dems")
    bb72 = build_bb_code(STANDARD_CODES["bb72"])
    bb144 = build_bb_code(STANDARD_CODES["bb144"])
    from cbdecode.noise import data_qubit_model

    settings = []
    mx72_05, _ = data_qubit_model(bb72, 0.05)
    settings.append(("bb72-data-p05-bpcb", mx72_05, "bp+cb", CBParams(6, 10, 3), 40_000))
    mx72_08, _ = data_qubit_model(bb72, 0.08)
    settings.append(("bb72-data-p08-cb", mx72_08, "cb", CBParams(4, 8, 2), 10_000))
    ph72 = phenomenological_model(bb72, 0.02, 0.02, 3)
    settings.append(("bb72-phenom-r3-bpcb", ph72, "bp+cb", CBParams(6, 36, 3), 20_000))
    circ = load_detector_model(_synthetic_circuit_dem(tmp_path))
    settings.append(("bb72-circuitfile-bpcb", circ, "bp+cb", CBParams(4, 16, 2), 20_000))
    mx144, _ = data_qubit_model(bb144, 0.04)
    settings.append(("bb144-data-p04-bpcb", mx144, "bp+cb", CBParams(6, 10, 3), 10_000))

    results = []
    total_shots = 0
    for idx, (label, model, decoder, params, shots) in enumerate(settings):
        stats = DecodeStats()
        bp = BPDecoder(model.noise_matrix, model.priors) if decoder == "bp+cb" else None
        unsound = 0
        declared = 0
        for start in range(0, shots, 1000):
            (mechanisms,) = sample_chunk(model, 1000 + idx, start, min(start + 1000, shots))
            syndromes = mat_vec_mod2(model.noise_matrix, mechanisms)
            for s in syndromes[syndromes.any(axis=1)]:
                if decoder == "cb":
                    out = cb_decode(s, params, model.noise_matrix, stats=stats)
                else:
                    out = bp_cb_decode(s, params, model, decoder=bp, stats=stats)
                if out.any():
                    if not np.array_equal(mat_vec_mod2(model.noise_matrix, out), s):
                        unsound += 1
                else:
                    declared += 1
        total_shots += shots
        results.append((label, params, stats, unsound, declared, shots))
    return results, total_shots


def test_criterion_03_soundness(soundness_results):
    results, total_shots = soundness_results
    unsound_total = sum(r[3] for r in results)
    declared_total = sum(r[4] for r in results)
    ok = total_shots >= 100_000 and unsound_total == 0
    _report(3, "soundness-suite", ok,
            f"{total_shots} shots across {len(results)} settings, "
            f"{unsound_total} unsound outputs, {declared_total} declared failures")


def test_criterion_04_budget_invariant(soundness_results):
    results, _ = soundness_results
    violations = []
    details = []
    for label, params, stats, _, _, _ in results:
        details.append(f"{label}: spawned {stats.max_spawned}/{params.max_br}, "
                       f"growths {stats.max_growths}/{params.max_gr}")
        if stats.max_spawned > params.max_br or stats.max_growths > params.max_gr:
            violations.append(label)
    _report(4, "budget-invariant", not violations, "; ".join(details))


# --- 5: data-qubit pseudothreshold --------------------------------------------


def test_criterion_05_data_qubit_pseudothreshold():
    points = []
    for p in (0.04, 0.05, 0.06, 0.07, 0.08):
        config = ExperimentConfig(
            noise="data-qubit",
            p=p,
            code_spec=STANDARD_CODES["bb72"],
            params=CBParams(6, 10, 3),
            decoder="bp+cb",
            max_shots=40_000,
            max_failures=100,
            seed=501,
        )
        result = run_experiment(config)
        points.append((p, result.p_l_total))
        assert result.logical_failures >= 100, f"only {result.logical_failures} failures at p={p}"
    crossing = crossing_estimate(points)
    detail = "points " + ", ".join(f"({p:.2f}, {pl:.4f})" for p, pl in points)
    ok = crossing is not None and 0.04 <= crossing <= 0.08
    _report(5, "data-qubit-pseudothreshold", ok,
            f"crossing at {crossing:.4f}; {detail}" if crossing else f"no crossing; {detail}")


# --- 6: phenomenological pseudothreshold ---------------------------------------


def test_criterion_06_phenomenological_pseudothreshold():
    d = 6
    points = []
    for p in (0.02, 0.03, 0.04, 0.05):
        config = ExperimentConfig(
            noise="phenomenological",
            p=p,
            q=p,
            rounds=d,
            code_spec=STANDARD_CODES["bb72"],
            params=CBParams(max_gr=d, max_br=d * d, max_tcts=3),
            decoder="bp+cb",
            max_shots=25_000,
            max_failures=100,
            seed=601,
        )
        result = run_experiment(config)
        points.append((p, result.p_l_per_cycle))
        assert result.logical_failures >= 100, f"only {result.logical_failures} failures at p={p}"
    crossing = crossing_estimate(points)
    detail = "per-cycle points " + ", ".join(f"({p:.3f}, {pl:.5f})" for p, pl in points)
    ok = crossing is not None and 0.025 <= crossing <= 0.055
    _report(6, "phenomenological-pseudothreshold", ok,
            f"crossing at {crossing:.4f}; {detail}" if crossing else f"no crossing; {detail}")


# --- 7: noise-matrix structure ---------------------------------------------------


def test_criterion_07_noise_matrix_structure():
    code = build_bb_code(STANDARD_CODES["bb72"])
    model = phenomenological_model(code, 0.01, 0.01, 6)
    weights = np.array(model.noise_matrix.row_weights()).reshape(6, -1)
    boundary_ok = (weights[0] == 7).all() and (weights[-1] == 7).all()
    bulk_ok = (weights[1:-1] == 8).all()
    _report(7, "noise-matrix-structure", bool(boundary_ok and bulk_ok),
            f"boundary weights {sorted({int(w) for w in weights[0]} | {int(w) for w in weights[-1]})}, "
            f"bulk weights {sorted({int(w) for w in weights[1:-1].ravel()})}")


# --- 8: larger-code ordering ------------------------------------------------------


def test_criterion_08_larger_code_ordering():
    shots = 4000
    failures = {}
    for name in ("bb72", "bb144"):
        config = ExperimentConfig(
            noise="data-qubit",
            p=0.03,
            code_spec=STANDARD_CODES[name],
            params=CBParams(6, 10, 3),
            decoder="bp+cb",
            max_shots=shots,
            max_failures=None,
            seed=801,  # paired seeds: identical shot streams per index
        )
        failures[name] = run_experiment(config).logical_failures
    f72, f144 = failures["bb72"], failures["bb144"]
    # one-sided two-proportion z test at the 95% level
    p_pool = (f72 + f144) / (2 * shots)
    sigma = math.sqrt(max(2 * p_pool * (1 - p_pool) / shots, 1e-12))
    z = (f72 / shots - f144 / shots) / sigma
    ok = f144 <= f72 and z >= 1.645
    _report(8, "larger-code-ordering", ok,
            f"bb72 {f72}/{shots} vs bb144 {f144}/{shots} failures at p=0.03, z={z:.2f}")


# --- 9: BP exactness on trees -------------------------------------------------------


def test_criterion_09_bp_tree_exactness():
    m = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    priors = np.array([0.1, 0.1, 0.1])
    worst = 0.0
    for syndrome in itertools.product([0, 1], repeat=2):
        s = np.array(syndrome, dtype=np.uint8)
        res = BPDecoder(m, priors).decode(s, max_iters=40, stop_on_match=False)
        num = np.zeros(3)
        den = 0.0
        for bits in itertools.product([0, 1], repeat=3):
            e = np.array(bits, dtype=np.uint8)
            if np.array_equal(mat_vec_mod2(m, e), s):
                w = float(np.prod(np.where(e == 1, priors, 1 - priors)))
                num += w * e
                den += w
        worst = max(worst, float(np.abs(res.marginals - num / den).max()))
    _report(9, "bp-tree-exactness", worst < 1e-9, f"max marginal deviation {worst:.2e}")


# --- 10: DEM round-trip -----------------------------------------------------------


def test_criterion_10_dem_round_trip(tmp_path):
    rng = np.random.default_rng(1010)
    seen = set()
    lines = []
    statements = 0
    while statements < 1000:
        nd = int(rng.integers(1, 7))
        dets = tuple(sorted(rng.choice(250, size=nd, replace=False).tolist()))
        no = int(rng.integers(0, 3))
        obs = tuple(sorted(rng.choice(8, size=no, replace=False).tolist()))
        if (dets, obs) in seen:
            continue
        seen.add((dets, obs))
        p = float(rng.uniform(1e-4, 0.5))
        targets = [f"D{d}" for d in dets] + [f"L{o}" for o in obs]
        lines.append(" ".join(["error", repr(p)] + targets))
        statements += 1
        if rng.random() < 0.05:
            lines.append(f"# comment {len(lines)}")
    p1 = tmp_path / "fuzz1.dem"
    p2 = tmp_path / "fuzz2.dem"
    p1.write_text("\n".join(lines) + "\n")
    m1 = load_detector_model(str(p1))
    save_detector_model(m1, str(p2))
    m2 = load_detector_model(str(p2))
    p3 = tmp_path / "fuzz3.dem"
    save_detector_model(m2, str(p3))
    ok = (m1 == m2) and p2.read_text() == p3.read_text()
    _report(10, "dem-round-trip", ok,
            f"{m1.noise_matrix.cols} mechanisms, {m1.noise_matrix.rows} detectors, "
            f"models equal: {m1 == m2}")


# --- 11: complexity scaling ----------------------------------------------------------


def test_criterion_11_complexity_scaling():
    configs = {
        build_bb_code(STANDARD_CODES[name]).n: ExperimentConfig(
            noise="data-qubit",
            p=0.05,
            code_spec=STANDARD_CODES[name],
            params=CBParams(6, 10, 3),
            decoder="bp+cb",
            max_shots=600,
            max_failures=None,
            seed=1101,
        )
        for name in ("bb72", "bb108", "bb144")
    }
    # the sizes run in three interleaved rounds and each keeps its fastest,
    # so a change in the machine's speed during the test hits every size
    runs = {n: [] for n in configs}
    for _ in range(3):
        for n, config in configs.items():
            runs[n].append(run_experiment(config).decode_mean_us)
    times = {n: min(means) for n, means in runs.items()}
    ns = sorted(times)
    logs_n = np.log([float(n) for n in ns])
    logs_t = np.log([times[n] for n in ns])
    slope = float(np.polyfit(logs_n, logs_t, 1)[0])
    detail = ", ".join(f"n={n}: {times[n]:.0f}us" for n in ns) + f", slope {slope:.2f}"
    _report(11, "complexity-scaling", slope < 2.0, detail)
