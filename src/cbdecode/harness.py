"""Monte Carlo estimation of logical error rates.

An `ExperimentConfig` describes a whole experiment; `run_experiment(config,
threads=...)` runs it, in this process or in a pool of `threads` workers.
Per-shot RNG streams derive from (seed, shot_index), and outcomes are
consumed in shot order, so an experiment stops at its shot budget or at the
exact shot where the failure target is reached at any thread count.  Shots
are handled in chunks of 100 as arrays: one mat-vec gives a chunk's
syndromes, the decoder runs shot by shot on the nonzero ones, and one
`logical_failure` call (two mat-vecs) scores the chunk.  Every noise model
is scored alike: a zero output for a nonzero syndrome is a declared failure,
and any other output must reproduce its syndrome (else ValueError) and is a
failure when the residual flips a logical observable.  Results report the
total logical error rate and its per-cycle normalization.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .bbcodes import BBCodeSpec, build_bb_code
from .bp import MAX_ITERS, BPDecoder, bp_cb_decode
from .cb import CBParams, cb_decode
from .gf2 import mat_vec_mod2
from .noise import (
    DetectorModel,
    data_qubit_model,
    load_detector_model,
    phenomenological_model,
    sample_chunk,
)

DATA_QUBIT = "data-qubit"
PHENOMENOLOGICAL = "phenomenological"
CIRCUIT_FILE = "circuit-file"

# shots per sampling call and pool task: few enough that a failure target stops the pool soon
_CHUNK_SHOTS = 100

CSV_COLUMNS = [
    "code",
    "noise",
    "p",
    "rounds",
    "max_gr",
    "max_br",
    "max_tcts",
    "decoder",
    "shots",
    "failures",
    "PL_total",
    "PL_per_cycle",
    "mean_decode_us",
]


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment: a noise source, a decoder, budgets."""

    noise: str
    p: float = 0.0
    q: float | None = None
    rounds: int = 1
    code_spec: BBCodeSpec | None = None
    dem_path: str | None = None
    params: CBParams = field(default_factory=lambda: CBParams(6, 10, 3))
    decoder: str = "bp+cb"
    sector: str = "x"
    max_shots: int = 10_000
    max_failures: int | None = 100
    seed: int = 0
    bp_iters: int = MAX_ITERS
    name: str = ""

    def __post_init__(self):
        if self.noise not in (DATA_QUBIT, PHENOMENOLOGICAL, CIRCUIT_FILE):
            raise ValueError(f"unknown noise model {self.noise!r}")
        has_code = self.code_spec is not None
        has_dem = self.dem_path is not None
        if self.noise == CIRCUIT_FILE:
            if not has_dem or has_code:
                raise ValueError("circuit-file noise takes a dem_path and no code spec")
        else:
            if not has_code or has_dem:
                raise ValueError(f"{self.noise} noise takes a code spec and no dem_path")
        if self.decoder not in ("cb", "bp+cb"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.decoder == "cb" and self.params.max_gr < 2:
            raise ValueError("decoder cb needs max_gr >= 2: its schedule starts at step 2")
        if self.sector not in ("x", "z", "both"):
            raise ValueError("sector must be x, z or both")
        if self.sector != "x" and self.noise != DATA_QUBIT:
            raise ValueError(f"{self.noise} noise has only sector x")
        if self.max_shots < 1:
            raise ValueError("max_shots must be >= 1")
        if self.max_failures is not None and self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.rounds != 1 and self.noise == DATA_QUBIT:
            raise ValueError("data-qubit noise has one round")
        if self.bp_iters < 0:
            raise ValueError("bp_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def label(self) -> str:
        if self.name:
            return self.name
        if self.code_spec is not None:
            return self.code_spec.name or f"bb_l{self.code_spec.l}_m{self.code_spec.m}"
        return os.path.basename(self.dem_path or "dem")


@dataclass
class ExperimentResult:
    shots_run: int
    logical_failures: int
    p_l_total: float
    p_l_per_cycle: float
    decode_mean_us: float
    decode_p50_us: float
    decode_p99_us: float


def required_shots(target_pl_d: float) -> int:
    """Shot budget rule of thumb: 100 observed failures at the target rate."""
    if not 0.0 < target_pl_d <= 1.0:
        raise ValueError("target logical error rate must lie in (0, 1]")
    return math.ceil(100.0 / target_pl_d)


def logical_failure(
    model: DetectorModel, actual: np.ndarray, recovered: np.ndarray
) -> np.bool_ | np.ndarray:
    """Whether the residual actual + recovered flips any logical observable.

    `actual` and `recovered` are both one error vector of shape (cols,), or
    both k of them as rows of shape (k, cols), one entry per noise-matrix
    column (else ValueError); an entry counts by its parity, as in
    `mat_vec_mod2`.  Returns one verdict per error: a numpy bool for vectors,
    a bool array of shape (k,) for rows.  Scoring makes two mat-vecs, one
    for the residuals' syndromes and one for their observable flips.  A
    residual outside the check kernel raises, since the decoder should never
    emit such an estimate.
    """
    actual = np.asarray(actual, dtype=np.uint8)
    recovered = np.asarray(recovered, dtype=np.uint8)
    cols = model.noise_matrix.cols
    if actual.shape != recovered.shape or actual.ndim not in (1, 2) or actual.shape[-1] != cols:
        raise ValueError(f"error vectors must have the same shape, ({cols},) or (k, {cols})")
    residual = actual ^ recovered
    if mat_vec_mod2(model.noise_matrix, residual).any():
        raise ValueError("residual error has a nonzero syndrome")
    return mat_vec_mod2(model.observables, residual).any(axis=-1)


def detector_models(config: ExperimentConfig) -> list[tuple[str, DetectorModel]]:
    """The (sector, model) pairs decoded; q = p when `config.q` is None."""
    if config.noise == CIRCUIT_FILE:
        return [("x", load_detector_model(config.dem_path))]
    code = build_bb_code(config.code_spec)
    if config.noise == PHENOMENOLOGICAL:
        q = config.q if config.q is not None else config.p
        return [("x", phenomenological_model(code, config.p, q, config.rounds))]
    mx, mz = data_qubit_model(code, config.p)
    wanted = {"x": [("x", mx)], "z": [("z", mz)], "both": [("x", mx), ("z", mz)]}
    return wanted[config.sector]


class _ShotRunner:
    """Per-process experiment state: models, decoders, scoring."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.sectors: list[tuple[str, DetectorModel, BPDecoder | None]] = []
        for sector, model in detector_models(config):
            bp = BPDecoder.for_model(model) if config.decoder == "bp+cb" else None
            self.sectors.append((sector, model, bp))
        model = self.sectors[0][1]  # data-qubit shots draw (x, z) pairs, others mechanisms
        self.source = (model.noise_matrix.cols, config.p) if config.noise == DATA_QUBIT else model

    def _decode(self, model: DetectorModel, bp: BPDecoder | None, syndrome: np.ndarray) -> np.ndarray:
        if self.config.decoder == "cb":
            return cb_decode(syndrome, self.config.params, model.noise_matrix)
        return bp_cb_decode(syndrome, self.config.params, model, self.config.bp_iters, decoder=bp)

    def run_shots(self, start: int, stop: int):
        """Yields (logical failure?, decode seconds) for shots [start, stop)
        in order, once the whole chunk is sampled, decoded and scored.

        Per sector, one mat-vec gives every shot's syndrome, the decoder runs
        (and is timed) on the nonzero ones alone, and one `logical_failure`
        call scores every shot but the declared failures.
        """
        drawn = sample_chunk(self.source, self.config.seed, start, stop)
        parts = dict(zip(("x", "z"), drawn))
        failed = np.zeros(stop - start, dtype=bool)
        spent = [0.0] * (stop - start)
        for sector, model, bp in self.sectors:
            actual = parts[sector]
            syndromes = mat_vec_mod2(model.noise_matrix, actual)
            nonzero = syndromes.any(axis=1)
            recovered = np.zeros_like(actual)
            for j in np.flatnonzero(nonzero).tolist():
                t0 = time.perf_counter()
                out = self._decode(model, bp, syndromes[j])
                spent[j] += time.perf_counter() - t0
                recovered[j] = out
            declared = nonzero & ~recovered.any(axis=1)  # a zero output for a nonzero syndrome
            scored = ~declared
            failed[scored] |= logical_failure(model, actual[scored], recovered[scored])
            failed |= declared
        yield from zip(failed.tolist(), spent)


_WORKER_RUNNER: _ShotRunner | None = None


def _init_worker(runner: _ShotRunner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _worker_shots(start: int) -> list[tuple[bool, float]]:
    stop = min(start + _CHUNK_SHOTS, _WORKER_RUNNER.config.max_shots)
    return list(_WORKER_RUNNER.run_shots(start, stop))


def _shot_outcomes(config: ExperimentConfig, threads: int):
    """Per-shot (failed, decode seconds) in shot-index order.

    Bad input raises here, before any pool starts, and a worker that dies
    raises BrokenProcessPool.  An early close or an error terminates the
    workers; a pool run to its end lets them exit.
    """
    runner = _ShotRunner(config)
    if threads <= 1:
        for start in range(0, config.max_shots, _CHUNK_SHOTS):
            yield from runner.run_shots(start, min(start + _CHUNK_SHOTS, config.max_shots))
        return
    others = set(multiprocessing.active_children())
    with multiprocessing.Pool(threads, initializer=_init_worker, initargs=(runner,)) as pool:
        workers = set(multiprocessing.active_children()) - others
        chunks = pool.imap(_worker_shots, range(0, config.max_shots, _CHUNK_SHOTS))
        while True:
            try:
                yield from chunks.next(timeout=1.0)
            except StopIteration:
                break
            except multiprocessing.TimeoutError:
                # the pool hands a dead worker's task to no one, so wait no longer
                if any(worker.exitcode is not None for worker in workers):
                    raise BrokenProcessPool("a pool worker exited abruptly") from None
        pool.close()
        pool.join()


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> ExperimentResult:
    """Sample, decode and score shots until the shot or failure target.

    Shots run a chunk at a time, so a serial run, like a pooled one, decodes
    the rest of the chunk in which it reaches the failure target and then
    discards it; the shots and failures counted are unchanged.
    """
    failures = 0
    times: list[float] = []
    with closing(_shot_outcomes(config, threads)) as outcomes:
        for failed, spent in outcomes:
            failures += failed
            times.append(spent)
            if config.max_failures is not None and failures >= config.max_failures:
                break
    shots_run = len(times)
    arr = np.array(times) * 1e6
    pl_total = failures / shots_run
    return ExperimentResult(
        shots_run=shots_run,
        logical_failures=failures,
        p_l_total=pl_total,
        p_l_per_cycle=pl_total / config.rounds,
        decode_mean_us=float(arr.mean()),
        decode_p50_us=float(np.percentile(arr, 50)),
        decode_p99_us=float(np.percentile(arr, 99)),
    )


def result_row(config: ExperimentConfig, result: ExperimentResult) -> list[str]:
    return [
        config.label(),
        config.noise,
        repr(float(config.p)),
        str(config.rounds),
        str(config.params.max_gr),
        str(config.params.max_br),
        str(config.params.max_tcts),
        config.decoder,
        str(result.shots_run),
        str(result.logical_failures),
        repr(result.p_l_total),
        repr(result.p_l_per_cycle),
        f"{result.decode_mean_us:.1f}",
    ]


def append_csv(path: str, rows: list[list[str]]) -> None:
    """Append result rows, writing the header when the file is new."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def crossing_estimate(points: list[tuple[float, float]]) -> float | None:
    """Log-log interpolated p where the logical rate crosses p itself.

    Points are (p, P_L) pairs with strictly increasing p; zero rates are
    skipped.  Returns None when no sign change brackets a crossing.
    """
    clean = [(p, pl) for p, pl in points if pl > 0.0]
    for (p1, y1), (p2, y2) in zip(clean, clean[1:]):
        s1 = math.log(y1) - math.log(p1)
        s2 = math.log(y2) - math.log(p2)
        if s1 == 0.0:
            return p1
        if s1 * s2 < 0.0 or s2 == 0.0:
            x1, x2 = math.log(p1), math.log(p2)
            ly1, ly2 = math.log(y1), math.log(y2)
            x = (ly1 * (x2 - x1) - x1 * (ly2 - ly1)) / ((x2 - x1) - (ly2 - ly1))
            return math.exp(x)
    return None
