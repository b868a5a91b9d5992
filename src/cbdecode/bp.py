"""Belief propagation over the noise parity-check matrix, and BP+CB.

Sum-product message passing with a flooding schedule, conditioned on the
syndrome.  A batch of syndromes runs through a window of at most `_WINDOW`
rows at a time: a row leaves it once it is done, and the next pending row
takes its place at its own first iteration, so the rows that never converge
share their iterations with fresh rows instead of running alone, and the
message buffers stay one window in size.  When the hard decision fails to
reproduce the syndrome, the closed-branch schedule runs in weighted mode:
each mechanism carries an event weight derived from its posterior
log-likelihood ratio, growth is steered toward low-weight (likely)
mechanisms, and branches are discarded once their accumulated weight
exceeds the step budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cb import CBParams, DecodeStats, _check_int, run_schedule
from .gf2 import BinaryMatrix
from .noise import DetectorModel

LLR_CLAMP = 25.0
MAX_ITERS = 30  # the default BP iteration cap
_WINDOW = 100  # rows in sum-product at a time; pending rows refill it


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
    Variable slots form a contiguous (max column weight, columns) array,
    slot (j, c) being the edge to the j-th row of column c, so slot plane j
    holds every column's j-th incoming message and a column sums its
    messages by adding the planes (`_column_sums`).  Two permutation
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
        # s holds row s % rows); an edge's rank within its column is its plane
        check_slot = np.flatnonzero(self.check_cols < m.cols)
        cols = self.check_cols.ravel()[check_slot]
        order = np.lexsort((check_slot % rows, cols))
        check_slot, cols = check_slot[order], cols[order]
        var_slot = (np.arange(cols.size) - np.searchsorted(cols, cols)) * m.cols + cols
        var_from_check = np.full(var_width * m.cols, width * rows, dtype=np.intp)
        var_from_check[var_slot] = check_slot
        self.var_from_check = var_from_check.reshape(var_width, m.cols)
        check_from_var = np.full(width * rows, m.cols * var_width, dtype=np.intp)
        check_from_var[check_slot] = var_slot
        self.check_from_var = _running_slots(
            check_from_var.reshape(width, rows), m.cols * var_width
        )
        # the first iteration's variable-to-check tanh messages carry the priors
        prior_t = np.tanh(np.clip(self.prior_llr, -LLR_CLAMP, LLR_CLAMP) / 2.0)
        running = np.append(prior_t, 1.0)[_running_slots(self.check_cols, m.cols)]
        self.first_c2v = _exclusive_atanh(
            np.multiply.accumulate(running, axis=0, out=running), np.empty(self.check_cols.shape)
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
        """Sum-product on one syndrome: `_sum_product` on a one-row batch.

        With `stop_on_match` (the default) BP stops at the first iteration
        whose hard decision reproduces the syndrome, and a zero syndrome
        returns the priors at iteration 0; without it, BP runs all
        `max_iters` iterations and `converged` says whether any matched.
        """
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (self.m.rows,):
            raise ValueError("syndrome length must equal the matrix row count")
        return self._sum_product(syndrome[None], max_iters, stop_on_match)[0]

    def decode_batch(self, syndromes: np.ndarray, max_iters: int = MAX_ITERS) -> list[BPResult]:
        """`decode` on each row of a (k, rows) syndrome array, run together
        through BP's window of rows; each result is the one `decode(row,
        max_iters)` returns."""
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if syndromes.ndim != 2 or syndromes.shape[1] != self.m.rows:
            raise ValueError("syndromes must be a (k, matrix rows) array")
        return self._sum_product(syndromes, max_iters, stop_on_match=True)

    def _sum_product(
        self, syndromes: np.ndarray, max_iters: int, stop_on_match: bool
    ) -> list[BPResult]:
        """The sum-product loop on the rows of a (k, rows) uint8 array.

        At most `_WINDOW` rows run at a time, each message array carrying a
        leading window axis.  A row leaves the window when it is done, and a
        pending row takes its place at its own first iteration, so the
        window stays full while rows wait and the buffers do not grow with
        k; a row's iterations count from the one in which it entered, and
        the rows in the window keep the order in which they entered.  With
        `stop_on_match`, a row is done at the first iteration whose
        hard decision reproduces its syndrome, and a zero row at iteration
        0 without entering the window.  Without it, every row runs
        `max_iters` iterations and is `converged` if any of them matched.
        A row's result does not depend on the other rows: a column sums its
        messages plane by plane in the order `_column_sums` fixes, the order
        in which `.sum` would add them along a contiguous axis, and every
        elementwise step runs on each row's slots as one contiguous run.
        """
        _check_int("max_iters", max_iters, 0)
        cols = self.m.cols
        results: list[BPResult] = [None] * len(syndromes)
        # a row that runs no iteration keeps the priors, and no prior above
        # 0.5 means a zero decision; it converged if it is zero and may stop
        zero = ~syndromes.any(axis=1) & stop_on_match
        idle = zero | (max_iters == 0)
        for j in np.flatnonzero(idle).tolist():
            results[j] = BPResult(self.prior_llr, np.zeros(cols, dtype=np.uint8), bool(zero[j]), 0)
        pending = np.flatnonzero(~idle)  # by place in the batch

        width = min(_WINDOW, pending.size)
        # the window rows' messages, closed by their padding slot, in the
        # leading rows of these buffers
        c2v = np.empty((width, self.check_cols.size + 1), dtype=np.float64)
        c2v[:, -1] = 0.0
        c2v_checks = c2v[:, :-1].reshape(width, *self.check_cols.shape)
        t = np.empty((width, self.var_from_check.size + 1), dtype=np.float64)
        t[:, -1] = 1.0
        t_vars = t[:, :-1].reshape(width, *self.var_from_check.shape)
        hard = np.zeros((width, cols + 1), dtype=bool)
        converged = np.zeros(len(syndromes), dtype=bool)  # by place in the batch
        # the window rows in the order they entered, so the first is the
        # oldest: places, the iteration each ran first, syndromes, signs
        rows = pending[:0]
        taken = it = 0
        while rows.size or taken < pending.size:
            old = rows.size
            it += 1
            if old < width and taken < pending.size:
                new = pending[taken : taken + width - old]
                taken += new.size
                new_target = syndromes[new].astype(bool)
                entering = (new, np.full_like(new, it), new_target,
                            np.where(new_target, -2.0, 2.0)[:, None, :])
                if old:
                    entering = [np.concatenate(pair) for pair in
                                zip((rows, born, target, sign2), entering)]
                rows, born, target, sign2 = entering
            active = rows.size
            if old:
                running = np.take(t[:old], self.check_from_var, axis=1)
                # slot row by slot row: numpy's accumulate would walk each
                # column of slots on its own
                for k in range(1, running.shape[1]):
                    np.multiply(running[:, k], running[:, k - 1], out=running[:, k])
                unsigned = _exclusive_atanh(running, c2v_checks[:old])
                np.multiply(sign2[:old], unsigned, out=unsigned)
            if active > old:  # a row's first messages: the priors' table
                np.multiply(sign2[old:], self.first_c2v, out=c2v_checks[old:active])

            # (rows, planes, columns): plane j holds each column's j-th message
            incoming = np.take(c2v[:active], self.var_from_check, axis=1)
            posterior = _column_sums(incoming)
            posterior += self.prior_llr
            np.less(posterior, 0.0, out=hard[:active, :cols])
            parity = np.logical_xor.reduce(hard[:active, self.check_cols], axis=1)
            matched = (parity == target).all(axis=1)
            if not stop_on_match:
                converged[rows[matched]] = True
            done = matched if stop_on_match else np.zeros_like(matched)
            if it - born[0] + 1 == max_iters:  # the oldest rows ran their last iteration
                done = done | (born == born[0])
            if done.any():
                ok = matched[done] if stop_on_match else converged[rows[done]]
                decided = hard[:active][done, :cols].astype(np.uint8)
                for row, post, out, conv, n in zip(rows[done].tolist(), posterior[done], decided,
                                                    ok.tolist(), (it + 1 - born[done]).tolist()):
                    results[row] = BPResult(post, out, conv, n)
                kept = ~done
                rows, born, target, sign2 = rows[kept], born[kept], target[kept], sign2[kept]
                posterior, incoming = posterior[kept], incoming[kept]
            v2c = np.subtract(posterior[:, None, :], incoming, out=incoming)
            v2c.clip(-LLR_CLAMP, LLR_CLAMP, out=v2c)
            np.tanh(np.divide(v2c, 2.0, out=v2c), out=t_vars[: rows.size])
        return results


def _column_sums(planes: np.ndarray) -> np.ndarray:
    """The sum over axis -2 of `planes`, added plane by plane in the order of
    numpy's pairwise sum, so that each element is bit for bit what `.sum`
    gives along a contiguous axis holding the same terms (up to the sign of
    an all-zero sum): under 8 planes in turn; up to 128 planes in eight
    accumulators over blocks of 8 planes, joined as ((r0 + r1) + (r2 + r3))
    + ((r4 + r5) + (r6 + r7)), then the planes past the last whole block in
    turn; above 128 planes, each half summed so, the split a multiple of 8.
    """
    n = planes.shape[-2]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _column_sums(planes[..., :half, :]) + _column_sums(planes[..., half:, :])
    if n < 8:
        total = planes[..., 0, :].copy()
        tail = range(1, n)
    else:
        r = planes[..., :8, :].copy()
        for k in range(8, n - n % 8, 8):
            r += planes[..., k : k + 8, :]
        total = (r[..., 0, :] + r[..., 1, :]) + (r[..., 2, :] + r[..., 3, :])
        total += (r[..., 4, :] + r[..., 5, :]) + (r[..., 6, :] + r[..., 7, :])
        tail = range(n - n % 8, n)
    for k in tail:
        total += planes[..., k, :]
    return total


def _running_slots(slots: np.ndarray, pad: int) -> np.ndarray:
    """The slots in order and reversed side by side, shifted down one row
    behind a leading row of `pad`, for `_exclusive_atanh`."""
    both = np.hstack([slots, slots[::-1]])
    return np.vstack([np.full((1, both.shape[1]), pad, dtype=np.intp), both[:-1]])


def _exclusive_atanh(products: np.ndarray, out: np.ndarray) -> np.ndarray:
    """arctanh of each check slot's exclusive product of tanh messages, from
    their running products down the slots gathered through `_running_slots`,
    written to `out` (width x rows, or shots x width x rows)."""
    rows = out.shape[-1]
    np.multiply(products[..., :rows], products[..., ::-1, rows:], out=out)
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
    bp_result: BPResult | None = None,
) -> np.ndarray:
    """BP first; on mismatch, the closed-branch schedule in weighted mode.

    Without a decoder, BPDecoder.for_model(model) builds one.  A zero
    syndrome is BP's converged zero decision at iteration 0.  `bp_result`,
    BP's result for this syndrome (a row of `BPDecoder.decode_batch`, say),
    skips BP; `max_iters` and `decoder` are then unused.  Returns the zero
    vector when neither stage reproduces the syndrome.
    """
    result = bp_result
    if result is None:
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
