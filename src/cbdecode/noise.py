"""Noise models: error sampling and noise parity-check matrix construction.

Three abstraction levels are supported.  Data-qubit noise reuses the code's
own check matrices.  Phenomenological noise stacks per-round detector layers
(consecutive syndrome differences, with the final layer taken from a perfect
data readout) and adds weight-2 measurement-error columns.  Circuit-level
matrices are generated externally and ingested through a small text format.
`sample_chunk` draws the shots of any of them, a chunk or a span at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bbcodes import CSSCode
from .gf2 import BinaryMatrix


@dataclass
class DetectorModel:
    """Error-mechanism priors plus the matrices they act through.

    noise_matrix rows are detectors and columns are error mechanisms;
    observables rows are logical observables over the same columns.
    """

    noise_matrix: BinaryMatrix
    priors: np.ndarray
    observables: BinaryMatrix

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        if self.priors.shape != (self.noise_matrix.cols,):
            raise ValueError("one prior per noise-matrix column required")
        if self.observables.cols != self.noise_matrix.cols:
            raise ValueError("observable and noise matrices must share columns")
        if not ((self.priors >= 0.0) & (self.priors <= 0.5)).all():  # NaN fails too
            raise ValueError("priors must lie in [0, 0.5]")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectorModel):
            return NotImplemented
        return (
            self.noise_matrix == other.noise_matrix
            and self.observables == other.observables
            and self.priors.shape == other.priors.shape
            and (self.priors == other.priors).all()
        )


def data_qubit_model(code: CSSCode, p: float) -> tuple[DetectorModel, DetectorModel]:
    """Per-sector models for data-qubit depolarizing noise.

    The X-error model decodes through hz with per-qubit flip prior 2p/3
    (an X or Y occurred) and logical_z rows as observables; the Z-error
    model is the mirror image through hx.
    """
    prior = 2.0 * p / 3.0
    x_model = DetectorModel(
        noise_matrix=code.hz,
        priors=np.full(code.n, prior),
        observables=BinaryMatrix.from_rows(code.logical_z, code.n),
    )
    z_model = DetectorModel(
        noise_matrix=code.hx,
        priors=np.full(code.n, prior),
        observables=BinaryMatrix.from_rows(code.logical_x, code.n),
    )
    return x_model, z_model


def phenomenological_model(
    code: CSSCode, p: float, q: float, rounds: int
) -> DetectorModel:
    """X-error model with noisy syndrome extraction over `rounds` layers.

    Detector layer t is the difference of consecutive Z-check readouts,
    with layer 0 the raw first round and the last layer formed against the
    perfect data readout.  Columns are (round, qubit) data flips with prior
    2p/3, then (round, check) measurement flips with prior q touching layers
    t and t+1.  Bulk detector rows have weight 8, boundary rows weight 7.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    checks = code.hz.rows
    n = code.n
    n_rows = rounds * checks
    data_cols = rounds * n
    meas_cols = (rounds - 1) * checks
    entries: list[tuple[int, int]] = []
    for t in range(rounds):
        base_row = t * checks
        base_col = t * n
        for c in range(checks):
            for i in code.hz.row_support[c]:
                entries.append((base_row + c, base_col + i))
    for t in range(rounds - 1):
        for c in range(checks):
            col = data_cols + t * checks + c
            entries.append((t * checks + c, col))
            entries.append(((t + 1) * checks + c, col))
    noise_matrix = BinaryMatrix(n_rows, data_cols + meas_cols, entries)

    obs_entries: list[tuple[int, int]] = []
    for j, lz in enumerate(code.logical_z):
        support = np.flatnonzero(lz)
        for t in range(rounds):
            for i in support:
                obs_entries.append((j, t * n + int(i)))
    observables = BinaryMatrix(len(code.logical_z), data_cols + meas_cols, obs_entries)

    priors = np.concatenate(
        [np.full(data_cols, 2.0 * p / 3.0), np.full(meas_cols, q)]
    )
    return DetectorModel(noise_matrix=noise_matrix, priors=priors, observables=observables)


# The per-shot reference draws, which `sample_chunk` reproduces and falls back on
def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Independent per-shot stream; reproducible and order-independent."""
    return np.random.default_rng((seed, shot_index))


def sample_depolarizing(n: int, p: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(x_part, z_part) of depolarizing noise, X, Y, Z each with probability p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    hit = rng.random(n) < p
    kind = rng.integers(0, 3, size=n)  # 0=X, 1=Y, 2=Z
    return (hit & (kind != 2)).astype(np.uint8), (hit & (kind != 0)).astype(np.uint8)


def sample_shot(model: DetectorModel, rng: np.random.Generator) -> np.ndarray:
    """The mechanisms that fire, each independently with its prior."""
    return (rng.random(model.noise_matrix.cols) < model.priors).astype(np.uint8)


# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's multiplier
_HASH_A, _HASH_B, _MIX = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED), (0xCA01F9DD, 0x4973F715)
_PCG64_MULT, _U128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_BLOCK_SHOTS = 100  # shots whose raw words are drawn at a time: the scratch arrays' size


def _pcg64_states(seed: int, shots: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of the PCG64 in `shot_rng(seed, i)` for each i in `shots`
    (< 2**32), from `SeedSequence((seed, i))` run on uint32 lanes, one per
    shot, and PCG64's srandom (O'Neill, PCG, 2014)."""
    seed_words = range(max(1, (int(seed).bit_length() + 31) // 32))
    entropy = [np.full(len(shots), int(seed) >> 32 * k & 0xFFFFFFFF, np.uint32) for k in seed_words]
    entropy.append(shots.astype(np.uint32))
    const, mult = _HASH_A
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    pool = [hashmix(entropy[k] if k < len(entropy) else np.zeros_like(entropy[0])) for k in range(4)]
    # each pool word into the others, then the entropy past the pool into all
    for src in range(max(4, len(entropy))):
        for dst in range(4):
            if src != dst:
                out = np.uint32(_MIX[0]) * pool[dst]
                out -= np.uint32(_MIX[1]) * hashmix(pool[src] if src < 4 else entropy[src])
                pool[dst] = out ^ (out >> np.uint32(16))
    const, mult = _HASH_B  # generate_state(4, uint64) hashes with its own constants
    halves = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    words = [(hi << np.uint64(32) | lo).tolist() for lo, hi in zip(halves[::2], halves[1::2])]
    states = []
    for a, b, c, d in zip(*words):
        inc = ((c << 64 | d) << 1 | 1) & _U128
        states.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _U128, inc))
    return states


def _raw_rows(states: list[tuple[int, int]], width: int) -> np.ndarray:
    """Row j: the first `width` raw words of a PCG64 set to `states[j]`."""
    bits, rows = np.random.PCG64(0), np.empty((len(states), width), np.uint64)
    for row, (state, inc) in zip(rows, states):
        pcg = {"state": state, "inc": inc}
        bits.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        row[:] = bits.random_raw(width)
    return rows


def sample_chunk(
    source: DetectorModel | tuple[int, float], seed: int, start: int, stop: int
) -> list[np.ndarray]:
    """Shots [start, stop) of `seed` as uint8 arrays with one row per shot.

    Row j is what `rng = np.random.default_rng((seed, start + j))` draws.
    For a DetectorModel the list is [mechanisms]: `rng.random(cols) <
    priors`.  For depolarizing noise, an (n, p) pair, it is [x_parts,
    z_parts] from `hit = rng.random(n) < p` and `kind = rng.integers(0, 3,
    size=n)` (0 X, 1 Y, 2 Z): x is hit where kind != 2, z where kind != 0.

    From raw PCG64 words, `random() < p` is `(raw >> 11) < ceil(p * 2**53)`;
    `integers(0, 3)` is `3u >> 32` on the next words' 32-bit halves, low
    first, redrawing u = 0 (Lemire, ACM TOMACS 2019).  All the shots'
    seeds are hashed in one pass, and their raw words are drawn 100 shots
    at a time, so a call's scratch arrays stay the size of 100 shots
    whatever its length.  Shot indexes >= 2**32 and redrawn shots, or all
    when the import-time self-check failed or seed or p is not valid, are
    drawn by `sample_shot` or `sample_depolarizing` on `shot_rng(seed, i)`,
    which raise for such a seed or p as numpy does.  start and stop must be
    integers (a bool is not) with 0 <= start <= stop, else ValueError, as
    numpy takes no negative or fractional shot index.
    """
    for index in (start, stop):
        if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
            raise ValueError(f"shot indexes must be integers, not {index!r}")
    if not 0 <= start <= stop:
        raise ValueError(f"shot indexes must have 0 <= start <= stop, not {start} and {stop}")
    model = isinstance(source, DetectorModel)
    n, p = (source.noise_matrix.cols, source.priors) if model else source
    shots = np.arange(start, stop)
    exact = _EXACT and isinstance(seed, (int, np.integer)) and seed >= 0
    slow = (shots >= 2**32) | (not (exact and (model or 0.0 <= p <= 1.0)))
    fast = np.flatnonzero(~slow)
    drawn = [np.empty((len(shots), n), np.uint8) for _ in range(1 if model else 2)]
    if fast.size:
        states = _pcg64_states(seed, shots[fast])
        threshold = np.ceil(np.asarray(p) * 2.0**53).astype(np.uint64)
        width = n if model else n + (n + 1) // 2
        for a in range(0, fast.size, _BLOCK_SHOTS):
            block = fast[a : a + _BLOCK_SHOTS]
            raw = _raw_rows(states[a : a + _BLOCK_SHOTS], width)
            hit = (raw[:, :n] >> np.uint64(11)) < threshold
            if model:
                drawn[0][block] = hit
                continue
            u = raw[:, n:].astype("<u8").view("<u4")[:, :n]
            slow[block[(u == 0).any(axis=1)]] = True
            drawn[0][block] = hit & (u <= 2863311530)
            drawn[1][block] = hit & (u >= 1431655766)
    for j in np.flatnonzero(slow):
        rng = shot_rng(seed, start + int(j))
        rows = [sample_shot(source, rng)] if model else sample_depolarizing(n, p, rng)
        for out, row in zip(drawn, rows):
            out[j] = row
    return drawn


def _raw_words_exact() -> bool:
    """Whether `sample_chunk`'s raw-word path draws as this numpy's
    default_rng does, on a one-word seed and one longer than the pool."""
    seeds = (1, 2**160 + 7)
    want = [[sample_depolarizing(9, 0.5, shot_rng(s, i)) for i in range(4)] for s in seeds]
    try:
        drawn = [sample_chunk((9, 0.5), s, 0, 4) for s in seeds]
    except (KeyError, TypeError, ValueError):  # e.g. a PCG64 state of another form
        return False
    return np.array_equal(drawn, np.swapaxes(want, 1, 2))  # as (seed, part, shot, qubit)


_EXACT = True  # while the self-check below draws through the raw-word path
_EXACT = _raw_words_exact()


class DemParseError(ValueError):
    """Malformed detector-model file; message carries the line number."""


def load_detector_model(path: str) -> DetectorModel:
    """Parse the error-statement text format into a DetectorModel.

    Grammar, one statement per line: ``error <p> <targets...>`` with p in
    ASCII float syntax and targets ``D<int>`` (detector) or ``L<int>``
    (observable), the index in ASCII digits; ``#`` starts a comment.  The
    file is UTF-8 text.  Dimensions are inferred from the largest indices.
    Each statement becomes one mechanism column, in file order.  Malformed
    input, a line that is not UTF-8 included, raises DemParseError naming
    the path and the line.
    """
    mech_dets: list[tuple[int, ...]] = []
    mech_obs: list[tuple[int, ...]] = []
    priors: list[float] = []
    seen: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    max_det = -1
    max_obs = -1
    with open(path, "rb") as fh:  # text mode's line ends: \n, \r\n and \r
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise DemParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            if not line:
                continue
            parts = line.split()
            if parts[0] != "error":
                raise DemParseError(f"{path}:{lineno}: unknown statement {parts[0]!r}")
            if len(parts) < 2:
                raise DemParseError(f"{path}:{lineno}: missing probability")
            try:
                if not parts[1].isascii() or "_" in parts[1]:
                    raise ValueError  # float() takes Unicode digits and "_" grouping
                p = float(parts[1])
            except ValueError:
                raise DemParseError(
                    f"{path}:{lineno}: bad probability {parts[1]!r}"
                ) from None
            if not 0.0 < p < 1.0:
                raise DemParseError(f"{path}:{lineno}: probability {p} outside (0, 1)")
            if p > 0.5:
                raise DemParseError(f"{path}:{lineno}: prior {p} above 0.5 rejected")
            dets: set[int] = set()
            obs: set[int] = set()
            for tok in parts[2:]:
                digits = tok[1:].isascii() and tok[1:].isdigit()  # "²" passes isdigit
                if tok.startswith("D") and digits:
                    dets.add(int(tok[1:]))
                elif tok.startswith("L") and digits:
                    obs.add(int(tok[1:]))
                else:
                    raise DemParseError(f"{path}:{lineno}: bad target {tok!r}")
            key = (tuple(sorted(dets)), tuple(sorted(obs)))
            if key in seen:
                raise DemParseError(
                    f"{path}:{lineno}: duplicate error statement (first at line {seen[key]})"
                )
            seen[key] = lineno
            mech_dets.append(key[0])
            mech_obs.append(key[1])
            priors.append(p)
            if dets:
                max_det = max(max_det, max(dets))
            if obs:
                max_obs = max(max_obs, max(obs))
    n_det = max_det + 1
    n_obs = max_obs + 1
    n_mech = len(priors)
    noise = BinaryMatrix(
        n_det, n_mech, ((d, c) for c, ds in enumerate(mech_dets) for d in ds)
    )
    observ = BinaryMatrix(
        n_obs, n_mech, ((o, c) for c, os_ in enumerate(mech_obs) for o in os_)
    )
    return DetectorModel(noise_matrix=noise, priors=np.array(priors), observables=observ)


def save_detector_model(model: DetectorModel, path: str) -> None:
    """Write one error statement per mechanism column, targets sorted.

    What the loader rejects raises ValueError before the file opens: a zero
    prior, and two columns with the same detectors and observables.
    """
    zero = np.flatnonzero(model.priors == 0.0)
    if zero.size:
        raise ValueError(f"mechanism column {zero[0]} has prior 0.0, outside (0, 0.5]")
    targets = list(zip(model.noise_matrix.col_support, model.observables.col_support))
    first: dict[tuple, int] = {}
    for c, key in enumerate(targets):
        if first.setdefault(key, c) != c:
            raise ValueError(
                f"mechanism columns {first[key]} and {c} have the same detectors and observables"
            )
    with open(path, "w", encoding="utf-8") as fh:
        for c, (dets, obs) in enumerate(targets):
            bits = [f"D{d}" for d in dets] + [f"L{o}" for o in obs]
            fh.write(" ".join(["error", repr(float(model.priors[c]))] + bits) + "\n")
