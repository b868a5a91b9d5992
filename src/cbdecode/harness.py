"""Monte Carlo estimation of logical error rates.

An `ExperimentConfig` describes a whole experiment; `run_experiment(config,
threads=...)` runs it, in this process or in a pool of up to `threads`
workers.  Per-shot RNG streams derive from (seed, shot_index), so a run
counts the same shots and failures at any thread count.  One schedule,
`_spans`, cuts every run into spans of whole 100-shot chunks, each the
narrowest of 10 chunks, chunks / threads and ceil(R / 100) for a failure
target R; a span is one BP batch and, in a pool, one task.  A span returns
arrays: one `sample_chunk` call draws its shots, one mat-vec gives their
syndromes, the decoder runs on the nonzero ones, and one `logical_failure`
call (two mat-vecs) scores them.  `run_experiment` cuts the span in which
the failure target falls at its exact shot and discards the rest.  BP+CB
runs BP once on a span's nonzero syndromes (`BPDecoder.decode_batch`), then
`bp_cb_decode` on each with its BP result; a shot is charged the batch's
time in proportion to its iterations, plus its own `bp_cb_decode` call, and
a zero syndrome 0 s.  CB alone runs shot by shot.  Every noise model is
scored alike: a zero output for a nonzero syndrome is a declared failure,
and any other output must reproduce its syndrome (else ValueError) and is a
failure when the residual flips a logical observable.  Results report the
total logical error rate and its per-cycle normalization.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .bbcodes import BBCodeSpec, build_bb_code
from .bp import MAX_ITERS, BPDecoder, bp_cb_decode
from .cb import CBParams, _bad_value, _check_int, cb_decode
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

# shots per chunk: a span holds whole chunks
_CHUNK_SHOTS = 100
# most chunks per span, one BP batch: its window refills across them
_SPAN_CHUNKS = 10

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


def _is_real(value) -> bool:
    """Whether value is a real number: a bool is not, nor is a string."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


@dataclass
class ExperimentConfig:
    """One Monte Carlo experiment: a noise source, a decoder, budgets.

    Each value is checked here, its type before its range: noise, decoder,
    sector and name are strings, and so is dem_path (the file key dem) or
    None; p and q (or None) real numbers, kept as floats; rounds, max_shots,
    max_failures (or None), seed and bp_iters integers; a bool is neither.
    rounds None is the code's distance for phenomenological noise, else 1."""

    noise: str = DATA_QUBIT
    p: float = 0.0
    q: float | None = None
    rounds: int | None = None
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
        for key in ("noise", "decoder", "sector", "name"):
            if not isinstance(getattr(self, key), str):
                raise _bad_value(key, getattr(self, key), "a string")
        if self.dem_path is not None and not isinstance(self.dem_path, str):
            raise _bad_value("dem", self.dem_path, "a string")  # 0 would open stdin
        for key in ("p", "q") if self.q is not None else ("p",):
            value = getattr(self, key)
            if not _is_real(value):
                raise _bad_value(key, value, "a number")
            setattr(self, key, float(value))
        if self.noise not in (DATA_QUBIT, PHENOMENOLOGICAL, CIRCUIT_FILE):
            raise ValueError(f"unknown noise model {self.noise!r}")
        if self.noise == CIRCUIT_FILE and (self.dem_path is None or self.code_spec is not None):
            raise ValueError("circuit-file noise takes a dem_path and no code spec")
        if self.noise != CIRCUIT_FILE and (self.code_spec is None or self.dem_path is not None):
            raise ValueError(f"{self.noise} noise takes a code spec and no dem_path")
        if self.decoder not in ("cb", "bp+cb"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.decoder == "cb" and self.params.max_gr < 2:
            raise ValueError("decoder cb needs max_gr >= 2: its schedule starts at step 2")
        if self.sector not in ("x", "z", "both"):
            raise ValueError("sector must be x, z or both")
        if self.sector != "x" and self.noise != DATA_QUBIT:
            raise ValueError(f"{self.noise} noise has only sector x")
        _check_int("max_shots", self.max_shots, 1)
        if self.max_failures is not None:
            _check_int("max_failures", self.max_failures, 1)
        if self.rounds is None:
            self.rounds = (self.noise == PHENOMENOLOGICAL and self.code_spec.distance) or 1
        _check_int("rounds", self.rounds, 1)
        if self.rounds != 1 and self.noise == DATA_QUBIT:
            raise ValueError("data-qubit noise has one round")
        if not 0.0 <= self.p <= 0.75:  # NaN fails too
            raise ValueError("p must lie in [0, 0.75]: a prior 2p/3 above 0.5 is no noise model")
        if self.p != 0.0 and self.noise == CIRCUIT_FILE:
            raise ValueError("circuit-file noise takes its priors from the file, not p")
        if self.q is not None and self.noise != PHENOMENOLOGICAL:
            raise ValueError(f"{self.noise} noise has no measurement error rate q")
        if self.noise == PHENOMENOLOGICAL:
            q = self.q if self.q is not None else self.p
            if not 0.0 <= q <= 0.5:
                raise ValueError("q (p when q is unset) must lie in [0, 0.5]")
        _check_int("bp_iters", self.bp_iters, 0)
        _check_int("seed", self.seed, 0)

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

    def _decode(self, model: DetectorModel, bp: BPDecoder | None, syndromes: np.ndarray,
                rows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The outputs for the syndromes at `rows`, all nonzero and at least
        one, in order, and the decode seconds of each.

        CB alone runs, and is timed, one syndrome at a time.  A bp+cb sector
        runs BP once on all the rows and then each row's bp_cb_decode call on
        its BP result.  Each row is charged the BP batch's wall time in
        proportion to the iterations it ran, plus its own bp_cb_decode call,
        so the span's times still add up to the decoder's.
        """
        config = self.config
        outs: list[np.ndarray] = []
        seconds = np.empty(rows.size)
        batch = syndromes[rows]
        if bp is None:
            for i, syndrome in enumerate(batch):
                t0 = time.perf_counter()
                outs.append(cb_decode(syndrome, config.params, model.noise_matrix))
                seconds[i] = time.perf_counter() - t0
            return outs, seconds
        t0 = time.perf_counter()
        results = bp.decode_batch(batch, config.bp_iters)
        batch_s = time.perf_counter() - t0
        iterations = np.array([result.iterations for result in results], dtype=np.float64)
        if not iterations.any():  # a cap of 0 iterations: an equal share each
            iterations[:] = 1.0
        for i, (syndrome, result) in enumerate(zip(batch, results)):
            t0 = time.perf_counter()
            outs.append(bp_cb_decode(syndrome, config.params, model, bp_result=result))
            seconds[i] = time.perf_counter() - t0
        return outs, seconds + batch_s / iterations.sum() * iterations

    def run_shots(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(failed, spent) for shots [start, stop), in order: a bool array of
        logical failures and a float array of decode seconds.

        One `sample_chunk` call draws the shots.  Per sector, one mat-vec
        gives every shot's syndrome, the decoder runs (and is timed) on the
        nonzero ones alone, BP batched over them, their outputs and seconds
        are booked as arrays, and one `logical_failure` call scores every
        shot but the declared failures.
        """
        # sample_chunk hashes the span's seeds at once and keeps its scratch
        # arrays to a block of 100 shots
        parts = dict(zip(("x", "z"), sample_chunk(self.source, self.config.seed, start, stop)))
        failed = np.zeros(stop - start, dtype=bool)
        spent = np.zeros(stop - start)
        for sector, model, bp in self.sectors:
            actual = parts[sector]
            syndromes = mat_vec_mod2(model.noise_matrix, actual)
            nonzero = syndromes.any(axis=1)
            recovered = np.zeros_like(actual)
            rows = np.flatnonzero(nonzero)
            if rows.size:
                outs, seconds = self._decode(model, bp, syndromes, rows)
                recovered[rows] = outs
                spent[rows] += seconds
            declared = nonzero & ~recovered.any(axis=1)  # a zero output for a nonzero syndrome
            scored = ~declared
            failed[scored] |= logical_failure(model, actual[scored], recovered[scored])
            failed |= declared
        return failed, spent


_WORKER_RUNNER: _ShotRunner | None = None


def _init_worker(runner: _ShotRunner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = runner


def _worker_shots(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    return _WORKER_RUNNER.run_shots(*span)


def _spans(config: ExperimentConfig, threads: int) -> range:
    """The first shots of the run's spans, in shot order.  The span at start
    is [start, min(start + step, stop)) for the range's step and stop: all
    but the last are the narrowest of `_SPAN_CHUNKS` chunks, chunks /
    threads (a task per worker) and ceil(R / 100) chunks for a failure
    target R, and one chunk at least.  A range costs the same at any
    max_shots, and its length is the span count.
    """
    chunks = -(-config.max_shots // _CHUNK_SHOTS)
    width = min(_SPAN_CHUNKS, chunks // threads)
    if config.max_failures is not None:
        width = min(width, -(-config.max_failures // _CHUNK_SHOTS))
    return range(0, config.max_shots, max(width, 1) * _CHUNK_SHOTS)


def _span_outcomes(config: ExperimentConfig, threads: int):
    """Each span's (failed, spent) arrays, in shot order.

    The spans run in this process when `threads` is 1 or there is one span,
    else on a pool of no more workers than spans, one span a task.  Bad
    input raises here, before any pool starts, and a worker that dies
    raises BrokenProcessPool.  An early close or an error terminates the
    workers; a pool run to its end lets them exit.
    """
    runner = _ShotRunner(config)
    starts = _spans(config, threads)
    spans = ((start, min(start + starts.step, starts.stop)) for start in starts)
    workers = min(threads, len(starts))
    if workers == 1:
        yield from (runner.run_shots(*span) for span in spans)
        return
    others = set(multiprocessing.active_children())
    with multiprocessing.Pool(workers, initializer=_init_worker, initargs=(runner,)) as pool:
        children = set(multiprocessing.active_children()) - others
        outcomes = pool.imap(_worker_shots, spans)
        while True:
            try:
                yield outcomes.next(timeout=1.0)
            except StopIteration:
                break
            except multiprocessing.TimeoutError:
                # the pool hands a dead worker's task to no one, so wait no longer
                if any(child.exitcode is not None for child in children):
                    raise BrokenProcessPool("a pool worker exited abruptly") from None
        pool.close()
        pool.join()


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> ExperimentResult:
    """Sample, decode and score shots until the shot or failure target.

    `threads`, an integer >= 1, is the most workers to run the shots on.
    Serial and pooled runs decode the same spans of whole chunks (see
    `_spans`) and stop at the exact shot where the failure target is
    reached, so they count the same shots and failures; the rest of the
    last span is decoded and discarded.
    """
    _check_int("threads", threads, 1)
    target = config.max_failures
    failures = 0
    times: list[np.ndarray] = []
    with closing(_span_outcomes(config, threads)) as outcomes:
        for failed, spent in outcomes:
            if target is not None and failures + failed.sum() >= target:
                # the run ends at the shot of its target-th failure
                stop = np.flatnonzero(failed)[target - failures - 1] + 1
                failed, spent = failed[:stop], spent[:stop]
            failures += int(failed.sum())
            times.append(spent)
            if failures == target:
                break
    arr = np.concatenate(times) * 1e6
    shots_run = arr.size
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
        repr(config.p),
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
