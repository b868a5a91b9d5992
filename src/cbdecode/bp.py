"""Belief propagation over the noise parity-check matrix, and BP+CB.

Sum-product message passing with a flooding schedule, conditioned on the
syndrome.  When the hard decision fails to reproduce the syndrome, the
closed-branch schedule runs in weighted mode: each mechanism carries an
event weight derived from its posterior log-likelihood ratio, growth is
steered toward low-weight (likely) mechanisms, and branches are discarded
once their accumulated weight exceeds the step budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cb import CBParams, DecodeStats, run_schedule
from .gf2 import BinaryMatrix, zeros_vec
from .noise import DetectorModel

LLR_CLAMP = 25.0


@dataclass
class BPResult:
    """Posterior marginals and the hard decision they imply."""

    marginals: np.ndarray
    llrs: np.ndarray
    hard_decision: np.ndarray
    converged: bool
    iterations: int


class BPDecoder:
    """Reusable sum-product decoder for a fixed matrix and priors."""

    def __init__(self, m: BinaryMatrix, priors: np.ndarray, clamp: float = LLR_CLAMP):
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (m.cols,):
            raise ValueError("one prior per column required")
        if ((priors <= 0.0) | (priors > 0.5)).any():
            raise ValueError("priors must lie in (0, 0.5]")
        self.m = m
        self.clamp = float(clamp)
        self.prior_llr = np.log((1.0 - priors) / priors)

        edge_rows: list[int] = []
        edge_cols: list[int] = []
        for r, cs in enumerate(m.row_support):
            for c in cs:
                edge_rows.append(r)
                edge_cols.append(c)
        self.n_edges = len(edge_rows)
        self.edge_rows = np.array(edge_rows, dtype=np.int64)
        self.edge_cols = np.array(edge_cols, dtype=np.int64)

        pad = self.n_edges  # index of the neutral slot
        wr = max(m.row_weights(), default=0)
        wc = max(m.col_weights(), default=0)
        self.check_edges = np.full((m.rows, max(wr, 1)), pad, dtype=np.int64)
        self.var_edges = np.full((m.cols, max(wc, 1)), pad, dtype=np.int64)
        row_fill = [0] * m.rows
        col_fill = [0] * m.cols
        for e, (r, c) in enumerate(zip(edge_rows, edge_cols)):
            self.check_edges[r, row_fill[r]] = e
            row_fill[r] += 1
            self.var_edges[c, col_fill[c]] = e
            col_fill[c] += 1

    def decode(
        self,
        syndrome: np.ndarray,
        max_iters: int = 30,
        *,
        stop_on_match: bool = True,
    ) -> BPResult:
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (self.m.rows,):
            raise ValueError("syndrome length must equal the matrix row count")
        dense = self.m.to_dense().astype(np.uint32)

        posterior = self.prior_llr.copy()
        hard = (posterior < 0).astype(np.uint8)
        if stop_on_match and np.array_equal((dense @ hard) & 1, syndrome):
            return self._result(posterior, hard, True, 0)

        sign = (1.0 - 2.0 * syndrome.astype(np.float64))[:, None]
        v2c = np.zeros(self.n_edges, dtype=np.float64)
        v2c[:] = self.prior_llr[self.edge_cols]
        converged = False
        it = 0
        for it in range(1, max_iters + 1):
            t = np.tanh(np.clip(v2c, -self.clamp, self.clamp) / 2.0)
            t_pad = np.append(t, 1.0)
            gathered = t_pad[self.check_edges]
            prefix = np.cumprod(gathered, axis=1)
            suffix = np.cumprod(gathered[:, ::-1], axis=1)[:, ::-1]
            excl = np.ones_like(gathered)
            excl[:, 1:] *= prefix[:, :-1]
            excl[:, :-1] *= suffix[:, 1:]
            excl = np.clip(excl, -1.0 + 1e-12, 1.0 - 1e-12)
            c2v_vals = sign * 2.0 * np.arctanh(excl)
            c2v = np.zeros(self.n_edges + 1, dtype=np.float64)
            c2v[self.check_edges] = c2v_vals
            c2v[self.n_edges] = 0.0

            incoming = c2v[self.var_edges]
            posterior = self.prior_llr + incoming.sum(axis=1)
            v2c_vals = posterior[:, None] - incoming
            v2c_full = np.zeros(self.n_edges + 1, dtype=np.float64)
            v2c_full[self.var_edges] = v2c_vals
            v2c = v2c_full[: self.n_edges]

            hard = (posterior < 0).astype(np.uint8)
            if np.array_equal((dense @ hard) & 1, syndrome):
                converged = True
                if stop_on_match:
                    break
        return self._result(posterior, hard, converged, it)

    def _result(
        self, posterior: np.ndarray, hard: np.ndarray, converged: bool, iterations: int
    ) -> BPResult:
        marginals = 1.0 / (1.0 + np.exp(np.clip(posterior, -700.0, 700.0)))
        llrs = np.clip(posterior, -self.clamp, self.clamp)
        return BPResult(
            marginals=marginals,
            llrs=llrs,
            hard_decision=hard,
            converged=converged,
            iterations=iterations,
        )


def event_weights(llrs: np.ndarray) -> np.ndarray:
    """Per-mechanism growth weights: llr - min(llr) + 1, so min weight is 1."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.size == 0:
        raise ValueError("event weights need at least one llr")
    return llrs - llrs.min() + 1.0


def bp_cb_decode(
    syndrome: np.ndarray,
    params: CBParams,
    model: DetectorModel,
    max_iters: int = 30,
    *,
    decoder: BPDecoder | None = None,
    stats: DecodeStats | None = None,
) -> np.ndarray:
    """BP first; on mismatch, the closed-branch schedule in weighted mode.

    Returns the zero vector when neither stage reproduces the syndrome.
    """
    syndrome = np.asarray(syndrome, dtype=np.uint8)
    if not syndrome.any():
        return zeros_vec(model.noise_matrix.cols)
    bp = decoder if decoder is not None else BPDecoder(model.noise_matrix, model.priors)
    result = bp.decode(syndrome, max_iters)
    if result.converged:
        return result.hard_decision.copy()
    weights = event_weights(result.llrs)
    w_max = float(weights.max())
    return run_schedule(
        syndrome,
        params,
        model.noise_matrix,
        range(1, params.max_gr + 1),
        lambda step: step * w_max,
        event_weights=weights,
        stats=stats,
    )
