"""Closed-branch decoding.

The decoder explains a syndrome by growing branch instances (single error
mechanisms adjacent to at least one violated check) into closed branches:
mechanism sets whose oddly-touched checks are all violated and evenly-touched
checks all trivial.  Closed branches accumulate in a cluster; when the
cluster's flipped checks reproduce the syndrome, its mechanisms are returned
as the recovered error.

Growth is depth-first over candidate mechanisms adjacent to the frontier
check, keeping only candidates that open the fewest new trivial checks.
Extra trivial checks opened by a growth are deferred (fcts) and must be
closed later, either by further growth or by a loop (a growth landing on a
deferred check).  Destructive growth may dismantle previously closed
branches it collides with, re-exposing their checks.

Two budgets bound the work per instance: max_br caps how many alternative
branches a separation may spawn (an instance that goes past it is abandoned),
and the weight budget caps the accumulated mechanism weight (mechanism count
in plain mode, event weights when driven by belief-propagation marginals).

A Cluster(m, syndrome, event_weights) holds one decoding problem and its
closed branches.  Three stage passes act on a cluster in place and take
only what varies per pass: weight_1_errors(cluster) closes every mechanism
whose checks are all violated, non_dest_branch_growth(tcts, cluster,
weight, params) grows every seed with tcts trivial checks into a closed
branch within the weight budget, and dest_branch_growth, with the same
parameters, does the same while dismantling earlier closed branches it
collides with.  They are the stage API: a caller observes a stage by
running it on its own cluster.  The schedule (run_schedule) runs the first
sweep once per call and builds no cluster when it explains the syndrome.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .gf2 import BinaryMatrix


def _bad_value(key: str, value, kind: str) -> ValueError:
    return ValueError(f"config key {key!r} cannot take the value {value!r}: {key} must be {kind}")


def _check_int(key: str, value, low: int, too_low: str = "") -> None:
    """Raise ValueError unless `value` is an integer (a bool is not) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise _bad_value(key, value, "an integer")
    if value < low:
        raise ValueError(too_low or f"{key} must be >= {low}")


@dataclass(frozen=True)
class CBParams:
    """Decoder budgets, integers >= 1: growths per branch, branches per instance, seed tcts."""

    max_gr: int
    max_br: int
    max_tcts: int

    def __post_init__(self):
        for key in ("max_gr", "max_br", "max_tcts"):
            _check_int(key, getattr(self, key), 1, "all CB parameters must be >= 1")


@dataclass
class ClosedBranch:
    """A committed closed branch: its mechanisms, its checks, whether it grew destructively."""

    mechanisms: frozenset[int]
    checks_flipped: tuple[int, ...]
    destructive: bool


@dataclass
class DecodeStats:
    """Instrumentation counters accumulated across decode calls."""

    max_spawned: int = 0
    max_growths: int = 0
    branches_closed: int = 0
    instances_rejected: int = 0
    dismantled: int = 0


def _checked(m: BinaryMatrix, syndrome, event_weights) -> tuple[int, np.ndarray | None]:
    """Check a problem against m (ValueError: a wrong shape, a NaN weight) and
    pack it: the syndrome as a row bitmask, the weights as float64 or None."""
    syndrome = np.asarray(syndrome, dtype=np.uint8)
    if syndrome.shape != (m.rows,):
        raise ValueError("syndrome length must equal the matrix row count")
    weights = None
    if event_weights is not None:
        weights = np.asarray(event_weights, dtype=np.float64)
        if weights.shape != (m.cols,):
            raise ValueError("event weights length must equal the matrix column count")
        if np.isnan(weights).any():  # base + nan > budget is False: never pruned
            raise ValueError("event weights must not be NaN")
    return int.from_bytes(np.packbits(syndrome, bitorder="little").tobytes(), "little"), weights


class Cluster:
    """One decoding problem and the closed branches that explain it so far.

    Takes the noise matrix m, the syndrome (one entry per row) and, in
    weighted mode, the event weights (one per column); a wrong shape or a
    NaN weight raises ValueError.  The syndrome is packed once into the row
    bitmask syndrome_rows, and the weights into the float list weights (all
    1.0 in plain mode) and their minimum min_weight.

    Maintains flipped_rows, the row bitmask of m . error (mod 2),
    incrementally; eff, syndrome_rows ^ flipped_rows, is 0 once the cluster
    explains the syndrome.  Each flipped check and each used mechanism is
    owned by exactly one live branch, which is what destructive growth needs
    to dismantle precisely.  Live branches are kept by id, with the row
    bitmask of their checks, and owners in the lists row_owner and col_owner
    indexed by row and by column (None: no owner), and owned_cols, the
    column bitmask of the owned mechanisms.  version counts the adds and
    dismantlings, so an unchanged version means an unchanged cluster; a
    branch's id is the version its add brings the cluster to, so ids rise.
    Destructive growth may dismantle only the branches whose destructive
    flag is False.  The vectors flipped and error are computed from
    flipped_rows and owned_cols when read.  clear() drops every branch; the
    growth tables the cluster builds for its matrix, weights and eff are
    kept, so that one cluster serves every step of a schedule.
    """

    def __init__(
        self, m: BinaryMatrix, syndrome: np.ndarray, event_weights: np.ndarray | None = None
    ):
        self._start(m, *_checked(m, syndrome, event_weights))

    def _start(self, m: BinaryMatrix, syndrome_rows: int, weights: np.ndarray | None) -> None:
        """Set the cluster up for a problem that _checked has checked and packed."""
        self._candidate_table: dict[int, tuple[tuple[int, float, int, int], ...]]
        if weights is None:
            self.weights = [1.0] * m.cols
            self.min_weight = 1.0
            # with every weight 1.0 the candidate tables depend on m alone
            self._candidate_table = m.derived.setdefault("cb.unit_candidates", {})
        else:
            self.weights = weights.tolist()
            self.min_weight = float(weights.min()) if weights.size else 0.0
            self._candidate_table = {}
        self.m, self.syndrome_rows = m, syndrome_rows
        self._seed_table: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
        self.clear()

    def clear(self) -> None:
        """Drop every branch, leaving the cluster as it was built."""
        # _non_destructive: the live branches destructive growth may dismantle
        self.flipped_rows = self.owned_cols = self.version = self._non_destructive = 0
        self._by_id: dict[int, ClosedBranch] = {}
        self._rows: dict[int, int] = {}
        self.row_owner: list[int | None] = [None] * self.m.rows
        self.col_owner: list[int | None] = [None] * self.m.cols

    def _candidates(self, row: int) -> tuple[tuple[int, float, int, int], ...]:
        """The columns at row as growth candidates, cheapest first (by
        weight, then column): (column, weight, its other rows as a mask,
        the column as a mask).  Built on first use and kept for the
        cluster's life, or, in plain mode, the matrix's life."""
        found = self._candidate_table.get(row)
        if found is None:
            weights, masks, bit = self.weights, self.m.col_masks(), 1 << row
            # row_support is in column order, and sorted() is stable
            found = self._candidate_table[row] = tuple([
                (c, weights[c], masks[c] ^ bit, 1 << c)
                for c in sorted(self.m.row_support[row], key=weights.__getitem__)
            ])
        return found

    def _seeds(self) -> dict[int, list[tuple[int, int]]]:
        """Every unowned column at an effectively violated check, by the
        count of its trivial rows under eff, in column order: (column, those
        trivial rows as a mask).  Kept per (eff, owned columns) for the
        cluster's life; not to be changed by the caller."""
        eff, owned = self.eff, self.owned_cols
        found = self._seed_table.get((eff, owned))
        if found is None:
            masks, support = self.m.col_masks(), self.m.row_support
            found = self._seed_table[eff, owned] = {}
            for c in sorted({c for r in _bits(eff) for c in support[r]}):
                if not owned >> c & 1:
                    trivial = masks[c] & ~eff
                    count = trivial.bit_count()
                    if count in found:
                        found[count].append((c, trivial))
                    else:
                        found[count] = [(c, trivial)]
        return found

    @property
    def eff(self) -> int:
        """The effective syndrome: the violated checks no branch explains yet."""
        return self.syndrome_rows ^ self.flipped_rows

    def add(self, branch: ClosedBranch) -> int:
        self.version += 1
        bid = self.version
        self._by_id[bid] = branch
        rows = 0
        for r in branch.checks_flipped:
            self.row_owner[r] = bid
            rows |= 1 << r
        self._rows[bid] = rows
        self.flipped_rows ^= rows
        self._non_destructive += not branch.destructive
        for c in branch.mechanisms:
            self.col_owner[c] = bid
            self.owned_cols |= 1 << c
        return bid

    def dismantle(self, branch_id: int) -> ClosedBranch:
        branch = self._by_id[branch_id]
        if branch.destructive:
            raise ValueError("only non-destructively obtained branches can be dismantled")
        self.version += 1
        self._non_destructive -= 1
        del self._by_id[branch_id]
        self.flipped_rows ^= self._rows.pop(branch_id)
        for r in branch.checks_flipped:
            self.row_owner[r] = None
        for c in branch.mechanisms:
            self.col_owner[c] = None
            self.owned_cols ^= 1 << c
        return branch

    def dismantlable(self) -> bool:
        """Whether a live branch is non-destructive, so destructive growth may dismantle it."""
        return self._non_destructive > 0

    def branches(self) -> list[ClosedBranch]:
        """The live branches in id order (ids rise as branches are added)."""
        return list(self._by_id.values())

    @property
    def flipped(self) -> np.ndarray:
        """The flipped checks as a uint8 vector."""
        rows = self.flipped_rows
        return np.array([rows >> r & 1 for r in range(self.m.rows)], dtype=np.uint8)

    @property
    def error(self) -> np.ndarray:
        """The live branches' mechanisms as a uint8 vector."""
        packed = np.frombuffer(self.owned_cols.to_bytes(-(-self.m.cols // 8), "little"), np.uint8)
        return np.unpackbits(packed, count=self.m.cols, bitorder="little")


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _sweep_counters(m: BinaryMatrix) -> tuple[list[int], int, int, int]:
    """The weight-1 sweep's packed counters for m, built on first use and
    kept in m.derived: one field per column, column c's at bit c * width,
    where width is the bit length of the largest column weight plus a carry
    bit.  Returns (per row, a one in the field of each of its columns; the
    start, 2**(width - 1) - w in the field of each column of weight w > 0;
    the carry bits of those fields; width).  A field never overflows: it
    counts from 2**(width - 1) - w up to 2**(width - 1), its carry bit."""
    found = m.derived.get("cb.sweep_counters")
    if found is None:
        masks = m.col_masks()
        carry = max(map(int.bit_count, masks), default=0).bit_length()
        width = carry + 1
        adds = [sum(1 << c * width for c in cols) for cols in m.row_support]
        start = sum((1 << carry) - rows.bit_count() << c * width for c, rows in enumerate(masks) if rows)
        carries = sum(1 << c * width + carry for c, rows in enumerate(masks) if rows)
        found = m.derived["cb.sweep_counters"] = adds, start, carries, width
    return found


def _sweep(m: BinaryMatrix, eff: int, owned: int) -> tuple[list[int], int]:
    """The weight-1 sweep on bitmasks: mark every column outside owned whose
    rows all lie in eff, then close the marked ones in column order while
    their rows all lie in what is left of eff, which only loses rows.  A
    column is marked when the counters of _sweep_counters, one add per row
    of eff, carry out of its field: its count of rows in eff reached its
    weight.  Returns the closed columns, ascending, and what is left of eff."""
    adds, total, carries, width = _sweep_counters(m)
    rest = eff
    while rest:
        low = rest & -rest
        rest ^= low
        total += adds[low.bit_length() - 1]
    marked = total & carries
    masks = m.col_masks()
    closed = []
    while marked:
        low = marked & -marked
        marked ^= low
        c = (low.bit_length() - 1) // width
        rows = masks[c]
        if rows & eff == rows and not owned >> c & 1:
            closed.append(c)
            eff ^= rows
    return closed, eff


def weight_1_errors(cluster: Cluster, *, stats: DecodeStats | None = None) -> Cluster:
    """Close every mechanism whose adjacent checks are all effectively violated."""
    m = cluster.m
    closed, _ = _sweep(m, cluster.eff, cluster.owned_cols)
    for c in closed:
        cluster.add(ClosedBranch(frozenset((c,)), m.col_support[c], False))
    if stats is not None:
        stats.branches_closed += len(closed)
    return cluster


def _seed(rows: int, tcts: int, eff: int) -> int:
    """The trivial rows under eff of a column with row mask rows, if it has a
    violated row and exactly tcts trivial ones; 0 otherwise."""
    trivial = rows & ~eff
    return trivial if trivial != rows and trivial.bit_count() == tcts else 0


# Growth of branch instances against one cluster.
#
# A path holds int bitmasks of rows and columns: mechanisms, its columns;
# satisfied, the oddly-touched checks it explains; frontier, the trivial
# check being grown (None: take up the next deferred one); fcts, the deferred
# trivial checks in the order they are taken up, and fmask their set;
# weight_used; and growths.  A destructive path also holds touched_even, the
# evenly-touched checks; destroyed, the branch ids it would dismantle if it
# closes; and dmask, the rows those branches own.  Paths are tuples:
# (mechanisms, satisfied, frontier, fcts, fmask, weight_used, growths), and
# for destructive growth (mechanisms, satisfied, touched_even, frontier,
# fcts, fmask, weight_used, growths, destroyed, dmask).  The syndrome and the
# effective syndrome come off the cluster as row bitmasks, so a candidate's
# rows split into explained, loop-closed and newly opened checks with a few
# mask operations.
#
# A pass grows, in column order, every column that qualifies as a seed both
# at the start of the pass and, under the then-current eff, when reached.
# Growth from a seed is depth-first.  A popped path first takes up its
# frontier: with none, the first deferred check, and with neither it is
# closed and committed.  Destructive growth then clears a frontier owned by a
# dismantlable branch: the branch is marked destroyed, the frontier and every
# deferred check it re-exposes become checks this path explains, and the
# next one is taken up; the path dies when that takes it past max_br or turns
# an evenly-touched check violated.  The path then expands into one child per
# candidate column at its frontier, keeping the candidates that open the
# fewest new checks, cheapest first, and pushed so that the first is popped
# next.  A child that is not closed and can grow no further (max_gr growths,
# or no column fits the budget) is left out when taking up its frontier would
# leave it as it is: popped, it would expand to nothing.  The instance is
# rejected, and counted, when the kept moves take its spawned branches past
# max_br.  At a dead end (max_gr growths, or no second column fits the
# budget: every weight is at least min_weight), every child that is not closed
# is left out.  There _plain_growth only counts the moves and commits the
# first closed one, and _destructive_growth counts them and builds only the
# closed ones and those whose frontier a dismantling clears.  _plain_growth
# settles a seed whose first expansion is a dead end (every plain seed of
# step 2) before it builds a stack, a path or a deferred-check tuple.
# _plain_growth and _destructive_growth run this one search, written out
# once per growth mode so that non-destructive growth, most of the work,
# carries none of the destructive bookkeeping.  A destructive pass over a
# cluster with no non-destructive branch runs _plain_growth: none appears.


def _dismantlable(cluster: Cluster, row: int, destroyed: frozenset[int]) -> bool:
    """Whether destructive growth clears frontier row by dismantling its owner."""
    owner = cluster.row_owner[row]
    dismantlable = owner is not None and not cluster._by_id[owner].destructive
    return dismantlable and owner not in destroyed and not cluster.eff >> row & 1


def _commit(
    cluster: Cluster, stats: DecodeStats, mechanisms: int, satisfied: int,
    destroyed: frozenset[int], destructive: bool,
) -> None:
    for bid in sorted(destroyed):
        cluster.dismantle(bid)
        stats.dismantled += 1
    cluster.add(ClosedBranch(frozenset(_bits(mechanisms)), _bits(satisfied), destructive))
    stats.branches_closed += 1


def _plain_growth(
    tcts: int, cluster: Cluster, budget: float, params: CBParams, stats: DecodeStats,
    destructive: bool,
) -> None:
    """A pass with nothing to dismantle: owned columns are never candidates."""
    max_br, max_gr, min_weight = params.max_br, params.max_gr, cluster.min_weight
    masks, weights, col_owner = cluster.m.col_masks(), cluster.weights, cluster.col_owner
    table, candidates, many = cluster._candidate_table, cluster._candidates, cluster.m.rows
    eff, owned_cols, version = cluster.eff, cluster.owned_cols, cluster.version
    for c, trivial in cluster._seeds().get(tcts, ()):
        if cluster.version != version:  # a branch closed since the pass began
            eff, owned_cols = cluster.eff, cluster.owned_cols
            if not eff:
                break
            trivial = _seed(masks[c], tcts, eff) if col_owner[c] is None else 0
            if not trivial:
                continue
        if weights[c] > budget:
            continue
        low = trivial & -trivial
        more = trivial ^ low
        if max_gr == 1 or weights[c] + min_weight + min_weight > budget:
            # the seed's first expansion is a dead end: it runs here, as the
            # dead end below at growths 1 does, with no stack and no tuple
            frontier, base = low.bit_length() - 1, weights[c]
            satisfied = masks[c] & eff
            blocked, fresh, taken = satisfied | more, ~(eff | more), (1 << c) | owned_cols
            fewest, kept, closing = many, 0, None
            for _, weight, rows, cbit in table.get(frontier) or candidates(frontier):
                if taken & cbit:
                    continue
                if base + weight > budget:
                    break
                explains = rows & eff
                if explains & blocked:
                    continue
                opens = (rows & fresh).bit_count()
                if opens <= fewest:
                    if opens < fewest:
                        fewest, kept = opens, 0
                    kept += 1
                    if not opens and closing is None and rows & more == more:
                        closing = (1 << c) | cbit, satisfied | explains
            if not kept:
                continue
            if kept > 1:
                if kept > max_br:
                    stats.instances_rejected += 1
                    continue
                if kept > stats.max_spawned:
                    stats.max_spawned = kept
            if stats.max_growths < 1:
                stats.max_growths = 1
            if closing:
                _commit(cluster, stats, *closing, frozenset(), destructive)
            continue
        stack = [(
            1 << c, masks[c] & eff, low.bit_length() - 1,
            _bits(more) if more & (more - 1) else (more.bit_length() - 1,) if more else (), more,
            weights[c], 0,
        )]
        pop, push = stack.pop, stack.append
        spawned = 1
        while stack:
            mechanisms, satisfied, frontier, fcts, fmask, base, growths = pop()
            if frontier is None:
                if not fcts:
                    _commit(cluster, stats, mechanisms, satisfied, frozenset(), destructive)
                    break
                frontier, fcts = fcts[0], fcts[1:]
                fmask ^= 1 << frontier
            growths += 1  # <= max_gr: an expansion at max_gr is a dead end, pushing nothing
            blocked = satisfied | fmask
            fresh = ~(eff | fmask)  # no deferred check is violated
            taken = mechanisms | owned_cols
            fewest, kept, closing, moves = many, 0, None, ()  # no move opens many checks
            if growths == max_gr or base + min_weight + min_weight > budget:  # a dead end
                for _, weight, rows, cbit in table.get(frontier) or candidates(frontier):
                    if taken & cbit:
                        continue
                    if base + weight > budget:
                        break
                    explains = rows & eff
                    if explains & blocked:
                        continue
                    opens = (rows & fresh).bit_count()
                    if opens <= fewest:
                        if opens < fewest:
                            fewest, kept = opens, 0
                        kept += 1
                        if not opens and closing is None and rows & fmask == fmask:
                            closing = mechanisms | cbit, satisfied | explains
            else:
                moves = []
                for _, weight, rows, cbit in table.get(frontier) or candidates(frontier):
                    if taken & cbit:
                        continue
                    if base + weight > budget:
                        break  # and so is every later, heavier candidate
                    explains = rows & eff
                    if explains & blocked:
                        continue  # second touch on an explained check
                    new_opens = rows & fresh
                    opens = new_opens.bit_count()
                    if opens <= fewest:  # only the moves opening the fewest checks are kept
                        if opens < fewest:
                            fewest, moves = opens, []
                        moves.append((weight, cbit, explains, rows & fmask, new_opens))
                kept = len(moves)
            if not kept:
                continue
            if kept > 1:
                spawned += kept - 1
                if spawned > max_br:
                    stats.instances_rejected += 1
                    break
                if spawned > stats.max_spawned:
                    stats.max_spawned = spawned
            if growths > stats.max_growths:  # every path's growths pass through here
                stats.max_growths = growths
            if closing:
                _commit(cluster, stats, *closing, frozenset(), destructive)
                break
            if not moves:
                continue  # a dead end with no closed move
            # moves are cheapest first, as their candidates: push the last first
            for weight, cbit, explains, loop_closed, new_opens in reversed(moves):
                used = base + weight
                if (new_opens or loop_closed != fmask) and used + min_weight > budget:
                    continue  # a dead leaf
                rest = tuple([r for r in fcts if not loop_closed >> r & 1]) if loop_closed else fcts
                child_fmask = fmask ^ loop_closed
                child_frontier = None
                if new_opens:
                    low = new_opens & -new_opens
                    child_frontier = low.bit_length() - 1
                    more = new_opens ^ low
                    if more:
                        rest += _bits(more) if more & (more - 1) else (more.bit_length() - 1,)
                        child_fmask |= more
                push((
                    mechanisms | cbit, satisfied | explains, child_frontier, rest, child_fmask,
                    used, growths,
                ))


def _destructive_growth(
    tcts: int, cluster: Cluster, budget: float, params: CBParams, stats: DecodeStats
) -> None:
    """A destructive pass: a path may take columns of the branches it destroys."""
    max_br, max_gr, min_weight = params.max_br, params.max_gr, cluster.min_weight
    masks, weights, col_owner = cluster.m.col_masks(), cluster.weights, cluster.col_owner
    table, candidates, many = cluster._candidate_table, cluster._candidates, cluster.m.rows
    syndrome, row_owner, owned_rows = cluster.syndrome_rows, cluster.row_owner, cluster._rows
    by_id = cluster._by_id
    eff, owned_cols, version = cluster.eff, cluster.owned_cols, cluster.version
    for c, trivial in cluster._seeds().get(tcts, ()):
        if cluster.version != version:  # a branch closed since the pass began
            eff, owned_cols = cluster.eff, cluster.owned_cols
            if not eff:
                break
            trivial = _seed(masks[c], tcts, eff) if col_owner[c] is None else 0
            if not trivial:
                continue
        if weights[c] > budget:
            continue
        low = trivial & -trivial
        more = trivial ^ low
        stack = [(
            1 << c, masks[c] & eff, 0, low.bit_length() - 1,
            _bits(more) if more & (more - 1) else (more.bit_length() - 1,) if more else (), more,
            weights[c], 0, frozenset(), 0,
        )]
        pop, push = stack.pop, stack.append
        spawned = 1
        while stack:
            (mechanisms, satisfied, touched_even, frontier, fcts, fmask, base, growths,
             destroyed, dmask) = pop()
            while True:
                if frontier is None:
                    if not fcts:
                        break  # closed
                    frontier, fcts = fcts[0], fcts[1:]
                    fmask ^= 1 << frontier
                owner = row_owner[frontier]
                if (owner is None or by_id[owner].destructive or owner in destroyed
                        or eff >> frontier & 1):
                    break
                # colliding with a closed branch: dismantle it, the frontier
                # becomes a violated check this branch explains, and so does
                # every deferred check the dismantling re-exposes
                destroyed = destroyed | {owner}
                fbit = 1 << frontier
                freed = owned_rows[owner]
                if len(destroyed) > max_br or freed & touched_even & ~fbit:
                    frontier = -1  # dead: past max_br, or an evenly-touched check turned violated
                    break
                hit = freed & fmask
                if hit:
                    fcts = tuple([r for r in fcts if not hit >> r & 1])
                    fmask ^= hit
                satisfied |= fbit | hit
                frontier = None
                dmask |= freed
            if frontier is None:
                _commit(cluster, stats, mechanisms, satisfied, destroyed, True)
                break
            growths += 1
            if frontier < 0 or growths > max_gr:
                continue
            fbit = 1 << frontier
            blocked = satisfied | fmask
            ownable = syndrome & ~(eff | fmask | dmask)  # explained by a live branch
            taken = mechanisms | owned_cols
            moves: list[tuple] = []
            fewest, kept = many, 0
            # at a dead end every child that does not close is a dead leaf
            # unless taking up its frontier dismantles: only those and the
            # closed ones become moves, the rest are only counted.  A newly
            # opened check is never dismantlable: a check of a live branch is
            # violated under eff, in dmask, or ownable, and so explained here
            dead_end = growths == max_gr or base + min_weight + min_weight > budget
            for col, weight, rows, cbit in table.get(frontier) or candidates(frontier):
                # a column in this path, or owned by a branch it does not destroy, is out
                if taken & cbit and (
                    not destroyed or mechanisms & cbit or col_owner[col] not in destroyed
                ):
                    continue
                if base + weight > budget:
                    break
                destroy: set[int] | tuple = ()
                path_dmask, auto = dmask, 0  # auto: deferred checks a dismantling re-exposes
                owned = rows & ownable
                if owned & (owned - 1):
                    destroy = {b for r in _bits(owned) if not by_id[b := row_owner[r]].destructive}
                elif owned and not by_id[b := row_owner[owned.bit_length() - 1]].destructive:
                    destroy = {b}  # one owned row, the common collision
                if destroy:
                    if len(destroyed) + len(destroy) > max_br:
                        continue
                    freed = 0
                    for bid in destroy:
                        freed |= owned_rows[bid]
                    path_dmask = dmask | freed
                    freed &= ~masks[col]
                    if touched_even & freed:
                        continue  # an evenly-touched check would turn violated
                    auto = freed & fmask
                explains = rows & (eff | path_dmask)
                if explains & blocked:
                    continue
                rest = rows ^ explains
                loop_closed = rest & fmask
                new_opens = rest ^ loop_closed
                opens = new_opens.bit_count()
                if opens <= fewest:
                    if opens < fewest:
                        fewest, kept, moves = opens, 0, []
                    kept += 1
                    if dead_end and (new_opens or loop_closed | auto != fmask and not _dismantlable(
                        cluster, next(r for r in fcts if not (loop_closed | auto) >> r & 1),
                        destroyed | destroy if destroy else destroyed,
                    )):
                        continue
                    moves.append(
                        (weight, cbit, explains, loop_closed, new_opens, destroy, auto, path_dmask)
                    )
            if not kept:
                continue
            if kept > 1:
                spawned += kept - 1
                if spawned > max_br:
                    stats.instances_rejected += 1
                    break
                if spawned > stats.max_spawned:
                    stats.max_spawned = spawned
            touched = touched_even | fbit
            for weight, cbit, explains, loop_closed, new_opens, destroy, auto, path_dmask in (
                reversed(moves)
            ):
                gone = loop_closed | auto  # deferred checks this move resolves
                used = base + weight
                child_destroyed = destroyed | destroy if destroy else destroyed
                if not dead_end and used + min_weight > budget and (new_opens or gone != fmask and (
                        not _dismantlable(cluster, next(r for r in fcts if not gone >> r & 1),
                                          child_destroyed))):
                    continue  # a dead leaf
                rest = tuple([r for r in fcts if not gone >> r & 1]) if gone else fcts
                child_fmask = fmask ^ gone
                child_frontier = None
                if new_opens:
                    low = new_opens & -new_opens
                    child_frontier = low.bit_length() - 1
                    more = new_opens ^ low
                    if more:
                        rest += _bits(more) if more & (more - 1) else (more.bit_length() - 1,)
                        child_fmask |= more
                push((
                    mechanisms | cbit, satisfied | explains | auto, touched | loop_closed,
                    child_frontier, rest, child_fmask, used, growths, child_destroyed, path_dmask,
                ))
            if growths > stats.max_growths:
                stats.max_growths = growths


def _branch_growth_pass(
    destructive: bool, tcts: int, cluster: Cluster, weight: float, params: CBParams,
    stats: DecodeStats | None,
) -> Cluster:
    if tcts < 1:
        raise ValueError("tcts must be >= 1")
    if cluster.eff and destructive and cluster.dismantlable():
        _destructive_growth(tcts, cluster, weight, params, stats or DecodeStats())
    elif cluster.eff:  # with nothing to dismantle, destructive growth is the plain search
        _plain_growth(tcts, cluster, weight, params, stats or DecodeStats(), destructive)
    return cluster


def non_dest_branch_growth(
    tcts: int, cluster: Cluster, weight: float, params: CBParams, *,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Grow every seed with tcts trivial checks into a closed branch, without
    touching the cluster's earlier branches.

    A seed is an unowned column with >= 1 violated and exactly tcts trivial
    checks.  Each path keeps its mechanism weight, summed from the cluster's
    weights, within `weight` and its growths within params.max_gr, and an
    instance that spawns more than params.max_br branches is abandoned.
    Closed branches are added to the cluster, which is returned.
    """
    return _branch_growth_pass(False, tcts, cluster, weight, params, stats)


def dest_branch_growth(
    tcts: int, cluster: Cluster, weight: float, params: CBParams, *,
    stats: DecodeStats | None = None,
) -> Cluster:
    """non_dest_branch_growth, except that a path may dismantle up to
    params.max_br of the cluster's non-destructive branches it collides with.

    The dismantling happens only when the path closes.
    """
    return _branch_growth_pass(True, tcts, cluster, weight, params, stats)


@cache
def _passes(max_tcts: int) -> tuple[tuple[bool, int], ...]:
    """A step's passes after its first sweep as (destructive, tcts), tcts 0 a
    weight-1 sweep: tcts = 1..max_tcts, then a destructive pass per tcts, each
    followed by a sweep and tcts=1.  Kept per max_tcts (about 1 µs to build)."""
    cleanups = [((True, tcts), (False, 0), (False, 1)) for tcts in range(1, max_tcts + 1)]
    return tuple((False, tcts) for tcts in range(1, max_tcts + 1)) + sum(cleanups, ())


def run_schedule(
    syndrome: np.ndarray, params: CBParams, m: BinaryMatrix, steps: range, budget_for_step, *,
    event_weights: np.ndarray | None = None, stats: DecodeStats | None = None,
) -> np.ndarray:
    """The decoding schedule shared by the plain and reweighted decoders.

    The syndrome and weights are checked against m (ValueError) and packed
    before any step.  The weight-1 sweep of a cluster with no branches runs
    once per call, before any cluster is built: when it explains the
    syndrome (a zero one included), the first step returns its mechanisms.
    Otherwise each step adds the sweep's branches to one cluster (cleared
    between steps), runs `_passes(max_tcts)` in order and returns the
    cluster error once it explains the syndrome; zeros after the last step.

    Two exact rules skip passes.  A pass with no seed of its tcts searches
    nothing.  A search is named by its tcts and whether it may dismantle, so
    a destructive pass with nothing to dismantle is the non-destructive
    search of its tcts; within a step, a pass is skipped, and the rejections
    its search counted are added to stats again, when the same search closed
    nothing at the cluster's current version.  A sweep is recorded at the
    version where it ends: a second sweep closes nothing.
    """
    syndrome_rows, weights = _checked(m, syndrome, event_weights)
    swept, left = _sweep(m, syndrome_rows, 0)
    if not left:  # the first step returns the swept columns; with no step, zeros
        out = np.zeros(m.cols, dtype=np.uint8)
        for _ in map(budget_for_step, steps):
            for c in swept:
                out[c] = 1  # item by item: a fancy index costs about 1 µs more
            if stats is not None:
                stats.branches_closed += len(swept)
            break
        return out
    stats = stats if stats is not None else DecodeStats()
    cluster = Cluster.__new__(Cluster)
    cluster._start(m, syndrome_rows, weights)
    branches = [ClosedBranch(frozenset((c,)), m.col_support[c], False) for c in swept]
    for budget in map(budget_for_step, steps):
        stats.branches_closed += len(swept)
        if cluster.version:
            cluster.clear()
        for branch in branches:
            cluster.add(branch)
        # (tcts, dismantles, version): rejections, the first sweep's included
        idle: dict[tuple[int, bool, int], int] = {(0, False, cluster.version): 0}
        for destructive, tcts in _passes(params.max_tcts):
            dismantles, version = destructive and cluster.dismantlable(), cluster.version
            if (tcts, dismantles, version) in idle:
                stats.instances_rejected += idle[tcts, dismantles, version]
                continue
            if tcts and tcts not in cluster._seeds():
                continue
            rejected = stats.instances_rejected
            if tcts:
                grow = dest_branch_growth if destructive else non_dest_branch_growth
                grow(tcts, cluster, budget, params, stats=stats)
            else:
                weight_1_errors(cluster, stats=stats)
            if not cluster.eff:
                return cluster.error
            if not tcts or cluster.version == version:  # a second sweep closes nothing
                idle[tcts, dismantles, cluster.version] = stats.instances_rejected - rejected
    return np.zeros(m.cols, dtype=np.uint8)


def cb_decode(
    syndrome: np.ndarray, params: CBParams, m: BinaryMatrix, *, stats: DecodeStats | None = None
) -> np.ndarray:
    """Recover an error matching the syndrome, or the zero vector on failure.

    Iterates the growth budget from 2 up to max_gr; the first cluster whose
    flipped checks equal the syndrome wins, so lower-weight explanations are
    preferred.  A max_gr below 2 leaves no step to run and raises ValueError.
    """
    if params.max_gr < 2:
        raise ValueError("cb_decode needs max_gr >= 2: its schedule starts at step 2")
    return run_schedule(syndrome, params, m, range(2, params.max_gr + 1), float, stats=stats)
