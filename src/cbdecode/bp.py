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
from .gf2 import BinaryMatrix
from .noise import DetectorModel

LLR_CLAMP = 25.0
MAX_ITERS = 30  # the default BP iteration cap


@dataclass
class BPResult:
    """BP's posterior LLRs and the hard decision they imply; the marginals
    and the clamped llrs are computed from the posterior when read."""

    posterior: np.ndarray
    hard_decision: np.ndarray
    converged: bool
    iterations: int

    @property
    def marginals(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(self.posterior.clip(-700.0, 700.0)))

    @property
    def llrs(self) -> np.ndarray:
        return self.posterior.clip(-LLR_CLAMP, LLR_CLAMP)


class BPDecoder:
    """Reusable sum-product decoder for a fixed matrix and priors.

    Messages live in two padded slot layouts, both built once here.  Check
    slots form a contiguous (max row weight, rows) array, slot (k, r) being
    the edge to the k-th column of row r (`BinaryMatrix.row_slots`).
    Variable slots form a contiguous (columns, max column weight) array,
    slot (c, j) being the edge to the j-th row of column c, so a column's
    incoming messages sum along a row of that array.  Two permutation
    indexes carry messages between the layouts, one gather each way per
    iteration, and point padding slots at one neutral element appended to
    the source: 0.0 among check-to-variable messages, tanh 1.0 among
    variable-to-check ones.  The variable-to-check gather fills the check
    slots twice, in order and in reverse slot order side by side, each
    shifted down by one slot behind a leading padding slot.  One running
    product down the slots then holds, in row k of the in-order half, the
    product over the slots before slot k, and in row W-1-k of the reversed
    half the product over the slots after it (W slot rows), so a row-wise
    product of the two halves gives every slot's exclusive product; a
    padding factor is an exact 1.0.  The first iteration's variable-to-check
    messages are the priors alone, so its check-to-variable messages before
    the syndrome's sign are a table built here.  The convergence check
    gathers the hard decision through the check slots' column indexes and
    XORs down each row's slots.
    """

    def __init__(self, m: BinaryMatrix, priors: np.ndarray):
        priors = np.asarray(priors, dtype=np.float64)
        if priors.shape != (m.cols,):
            raise ValueError("one prior per column required")
        if not ((priors > 0.0) & (priors <= 0.5)).all():  # NaN fails too
            raise ValueError("priors must lie in (0, 0.5]")
        self.m = m
        self.prior_llr = np.log((1.0 - priors) / priors)
        self.prior_llr.flags.writeable = False  # a result may hold it as its posterior

        self.check_cols = m.row_slots()
        width, rows = self.check_cols.shape
        var_width = max(max(m.col_weights(), default=0), 1)
        # edges sorted by column, rows ascending within a column (check slot
        # s holds row s % rows); an edge's rank within its column is its slot
        check_slot = np.flatnonzero(self.check_cols < m.cols)
        cols = self.check_cols.ravel()[check_slot]
        order = np.lexsort((check_slot % rows, cols))
        check_slot, cols = check_slot[order], cols[order]
        var_slot = cols * var_width + np.arange(cols.size) - np.searchsorted(cols, cols)
        var_from_check = np.full(m.cols * var_width, width * rows, dtype=np.intp)
        var_from_check[var_slot] = check_slot
        self.var_from_check = var_from_check.reshape(m.cols, var_width)
        check_from_var = np.full(width * rows, m.cols * var_width, dtype=np.intp)
        check_from_var[check_slot] = var_slot
        self.check_from_var = _running_slots(
            check_from_var.reshape(width, rows), m.cols * var_width
        )
        # the first iteration's variable-to-check tanh messages carry the priors
        prior_t = np.tanh(np.clip(self.prior_llr, -LLR_CLAMP, LLR_CLAMP) / 2.0)
        self.first_c2v = _exclusive_atanh(
            np.append(prior_t, 1.0)[_running_slots(self.check_cols, m.cols)],
            np.empty(self.check_cols.shape),
        )

    @classmethod
    def for_model(cls, model: DetectorModel) -> "BPDecoder":
        """The decoder for a detector model's noise matrix and priors.

        Zero priors (q = 0 measurement columns, say) are raised to 1e-12 so
        belief propagation stays defined; their llrs clamp to the maximum.
        """
        return cls(model.noise_matrix, np.clip(model.priors, 1e-12, 0.5))

    def decode(
        self,
        syndrome: np.ndarray,
        max_iters: int = MAX_ITERS,
        *,
        stop_on_match: bool = True,
    ) -> BPResult:
        if max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (self.m.rows,):
            raise ValueError("syndrome length must equal the matrix row count")
        cols = self.m.cols
        # priors of at most 1/2 give prior LLRs of at least 0, so the prior
        # hard decision is zero; hard[cols] pads the check slots
        hard = np.zeros(cols + 1, dtype=bool)
        posterior = self.prior_llr
        if stop_on_match and not syndrome.any():
            return BPResult(posterior, hard[:cols].astype(np.uint8), True, 0)

        target = syndrome.astype(bool).tobytes()
        sign2 = np.where(syndrome, -2.0, 2.0)
        c2v = np.empty(self.check_cols.size + 1, dtype=np.float64)
        c2v[-1] = 0.0
        c2v_checks = c2v[:-1].reshape(self.check_cols.shape)
        t = np.empty(self.var_from_check.size + 1, dtype=np.float64)
        t[-1] = 1.0
        t_vars = t[:-1].reshape(self.var_from_check.shape)
        unsigned = self.first_c2v
        converged = False
        it = 0
        for it in range(1, max_iters + 1):
            if it > 1:
                unsigned = _exclusive_atanh(t[self.check_from_var], c2v_checks)
            np.multiply(sign2, unsigned, out=c2v_checks)

            incoming = c2v[self.var_from_check]
            posterior = self.prior_llr + incoming.sum(axis=1)
            np.less(posterior, 0.0, out=hard[:cols])
            if np.logical_xor.reduce(hard[self.check_cols], axis=0).tobytes() == target:
                converged = True
                if stop_on_match:
                    break
            v2c = np.subtract(posterior[:, None], incoming, out=incoming)
            v2c.clip(-LLR_CLAMP, LLR_CLAMP, out=v2c)
            np.tanh(np.divide(v2c, 2.0, out=v2c), out=t_vars)
        return BPResult(posterior, hard[:cols].astype(np.uint8), converged, it)


def _running_slots(slots: np.ndarray, pad: int) -> np.ndarray:
    """The slots in order and reversed side by side, shifted down one row
    behind a leading row of `pad`, for `_exclusive_atanh`."""
    both = np.hstack([slots, slots[::-1]])
    return np.vstack([np.full((1, both.shape[1]), pad, dtype=np.intp), both[:-1]])


def _exclusive_atanh(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """arctanh of each check slot's exclusive product of tanh messages `t`,
    gathered through `_running_slots`, written to `out` (width x rows)."""
    products = np.multiply.accumulate(t, axis=0, out=t)
    rows = out.shape[1]
    np.multiply(products[:, :rows], products[::-1, rows:], out=out)
    out.clip(-1.0 + 1e-12, 1.0 - 1e-12, out=out)
    return np.arctanh(out, out=out)


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
    max_iters: int = MAX_ITERS,
    *,
    decoder: BPDecoder | None = None,
    stats: DecodeStats | None = None,
) -> np.ndarray:
    """BP first; on mismatch, the closed-branch schedule in weighted mode.

    Without a decoder, BPDecoder.for_model(model) builds one.  A zero
    syndrome is BP's converged zero decision at iteration 0.  Returns the
    zero vector when neither stage reproduces the syndrome.
    """
    bp = decoder if decoder is not None else BPDecoder.for_model(model)
    result = bp.decode(syndrome, max_iters)
    if result.converged:
        return result.hard_decision
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
