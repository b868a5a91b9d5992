"""Noise models: error sampling and noise parity-check matrix construction.

Three abstraction levels are supported.  Data-qubit noise reuses the code's
own check matrices.  Phenomenological noise stacks per-round detector layers
(consecutive syndrome differences, with the final layer taken from a perfect
data readout) and adds weight-2 measurement-error columns.  Circuit-level
matrices are generated externally and ingested through a small text format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bbcodes import CSSCode
from .gf2 import BinaryMatrix, mat_vec_mod2


@dataclass
class PauliError:
    """X/Z decomposition of an n-qubit Pauli; Y sets both parts."""

    x_part: np.ndarray
    z_part: np.ndarray


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
        if len(self.priors) != self.noise_matrix.cols:
            raise ValueError("one prior per noise-matrix column required")
        if self.observables.cols != self.noise_matrix.cols:
            raise ValueError("observable and noise matrices must share columns")
        if ((self.priors < 0.0) | (self.priors > 0.5)).any():
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


@dataclass
class Shot:
    """One sampled error with its syndrome."""

    mechanisms: np.ndarray
    syndrome: np.ndarray


def shot_rng(seed: int, shot_index: int) -> np.random.Generator:
    """Independent per-shot stream; reproducible and order-independent."""
    return np.random.default_rng((seed, shot_index))


def sample_depolarizing(n: int, p: float, rng: np.random.Generator) -> PauliError:
    """Independent depolarizing noise: X, Y, Z each with probability p/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    hit = rng.random(n) < p
    kind = rng.integers(0, 3, size=n)  # 0=X, 1=Y, 2=Z
    x_part = (hit & (kind != 2)).astype(np.uint8)
    z_part = (hit & (kind != 0)).astype(np.uint8)
    return PauliError(x_part=x_part, z_part=z_part)


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


def sample_shot(model: DetectorModel, rng: np.random.Generator) -> Shot:
    """Fire each mechanism independently with its prior."""
    mechanisms = (rng.random(model.noise_matrix.cols) < model.priors).astype(np.uint8)
    return Shot(mechanisms=mechanisms, syndrome=mat_vec_mod2(model.noise_matrix, mechanisms))


class DemParseError(ValueError):
    """Malformed detector-model file; message carries the line number."""


def load_detector_model(path: str) -> DetectorModel:
    """Parse the error-statement text format into a DetectorModel.

    Grammar, one statement per line: ``error <p> <targets...>`` with targets
    ``D<int>`` (detector) or ``L<int>`` (observable); ``#`` starts a comment.
    Dimensions are inferred from the largest indices.  Each statement becomes
    one mechanism column, in file order.
    """
    mech_dets: list[tuple[int, ...]] = []
    mech_obs: list[tuple[int, ...]] = []
    priors: list[float] = []
    seen: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    max_det = -1
    max_obs = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "error":
                raise DemParseError(f"{path}:{lineno}: unknown statement {parts[0]!r}")
            if len(parts) < 2:
                raise DemParseError(f"{path}:{lineno}: missing probability")
            try:
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
                if tok.startswith("D") and tok[1:].isdigit():
                    dets.add(int(tok[1:]))
                elif tok.startswith("L") and tok[1:].isdigit():
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
