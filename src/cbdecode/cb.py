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

A Cluster(m, syndrome, event_weights) holds one decoding problem: the noise
matrix, the syndrome and the weights are checked and packed once, when it is
built.  The schedule (run_schedule) is built from three stage passes, each
acting on a cluster in place and taking only what varies per pass:
weight_1_errors(cluster) closes every mechanism whose checks are all
violated, non_dest_branch_growth(tcts, cluster, weight, params) grows every
seed with tcts trivial checks into a closed branch within the weight budget,
and dest_branch_growth, with the same parameters, does the same while
dismantling earlier closed branches it collides with.  They are the stage
API: a caller observes a stage by running it on its own cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BinaryMatrix, _vec_to_int


@dataclass(frozen=True)
class CBParams:
    """Decoder budgets: growths per branch, branches per instance, seed tcts."""

    max_gr: int
    max_br: int
    max_tcts: int

    def __post_init__(self):
        if self.max_gr < 1 or self.max_br < 1 or self.max_tcts < 1:
            raise ValueError("all CB parameters must be >= 1")


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
    indexed by row and by column (None: no owner).  version counts the adds
    and dismantlings, so an unchanged version means an unchanged cluster; a
    branch's id is the version its add brings the cluster to, so ids rise.
    Destructive growth may dismantle only the branches whose destructive
    flag is False.  The vectors flipped and error are computed from
    flipped_rows and col_owner when read.
    """

    def __init__(
        self, m: BinaryMatrix, syndrome: np.ndarray, event_weights: np.ndarray | None = None
    ):
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape != (m.rows,):
            raise ValueError("syndrome length must equal the matrix row count")
        if event_weights is None:
            self.weights = [1.0] * m.cols
            self.min_weight = 1.0
        else:
            weights = np.asarray(event_weights, dtype=np.float64)
            if weights.shape != (m.cols,):
                raise ValueError("event weights length must equal the matrix column count")
            if np.isnan(weights).any():  # base + nan > budget is False: never pruned
                raise ValueError("event weights must not be NaN")
            self.weights = weights.tolist()
            self.min_weight = float(weights.min()) if weights.size else 0.0
        self.m = m
        self.syndrome_rows = _vec_to_int(syndrome)
        self.flipped_rows = 0
        self.version = 0
        self._by_id: dict[int, ClosedBranch] = {}
        self._rows: dict[int, int] = {}
        self.row_owner: list[int | None] = [None] * m.rows
        self.col_owner: list[int | None] = [None] * m.cols

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
        for c in branch.mechanisms:
            self.col_owner[c] = bid
        return bid

    def dismantle(self, branch_id: int) -> ClosedBranch:
        branch = self._by_id[branch_id]
        if branch.destructive:
            raise ValueError("only non-destructively obtained branches can be dismantled")
        self.version += 1
        del self._by_id[branch_id]
        self.flipped_rows ^= self._rows.pop(branch_id)
        for r in branch.checks_flipped:
            self.row_owner[r] = None
        for c in branch.mechanisms:
            self.col_owner[c] = None
        return branch

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
        return np.array([owner is not None for owner in self.col_owner], dtype=np.uint8)


def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _candidate_columns(eff: int, m: BinaryMatrix) -> list[int]:
    return sorted({c for r in _bits(eff) for c in m.row_support[r]})


def weight_1_errors(cluster: Cluster, *, stats: DecodeStats | None = None) -> Cluster:
    """Close every mechanism whose adjacent checks are all effectively violated."""
    m, eff = cluster.m, cluster.eff
    stats = stats or DecodeStats()
    masks = m.col_masks()
    for c in _candidate_columns(eff, m):
        rows = masks[c]
        if cluster.col_owner[c] is None and rows and rows & eff == rows:
            cluster.add(ClosedBranch(frozenset((c,)), m.col_support[c], False))
            eff ^= rows
            stats.branches_closed += 1
    return cluster


def _seed(rows: int, tcts: int, eff: int) -> int:
    """The trivial rows under eff of a column with row mask rows, if it has a
    violated row and exactly tcts trivial ones; 0 otherwise."""
    trivial = rows & ~eff
    return trivial if trivial != rows and trivial.bit_count() == tcts else 0


class _Path:
    """One branch path of a growing instance.

    Row and column sets are int bitmasks.  satisfied holds the oddly-touched
    checks currently explained; frontier is the trivial check being grown
    (None: pick the next deferred one); fcts are the deferred trivial checks
    in the order they are taken up, and fmask their set; destroyed holds the
    branch ids this path would dismantle if it closes, and dmask the rows
    those branches own.  A path sits on the growth stack once.  Its fields
    are rebound, never mutated in place, so children may share their
    parent's values.
    """

    __slots__ = (
        "mechanisms", "satisfied", "touched_even", "frontier", "fcts", "fmask",
        "weight_used", "growths", "destroyed", "dmask",
    )

    def __init__(
        self, mechanisms, satisfied, touched_even, frontier, fcts, fmask,
        weight_used, growths, destroyed, dmask,
    ):
        self.mechanisms = mechanisms
        self.satisfied = satisfied
        self.touched_even = touched_even
        self.frontier = frontier
        self.fcts = fcts
        self.fmask = fmask
        self.weight_used = weight_used
        self.growths = growths
        self.destroyed = destroyed
        self.dmask = dmask


class _Grower:
    """Depth-first growth of branch instances against one cluster.

    The syndrome and the effective syndrome come off the cluster as row
    bitmasks, so a candidate's rows split into explained, loop-closed and
    newly opened checks with a few mask operations.
    """

    def __init__(
        self, destructive: bool, budget: float, params: CBParams, cluster: Cluster,
        stats: DecodeStats,
    ):
        self.destructive = destructive
        self.budget = budget
        self.max_br = params.max_br
        self.max_gr = params.max_gr
        self.cluster = cluster
        self.col_masks = cluster.m.col_masks()
        self.stats = stats

    def _dismantlable(self, row: int, destroyed: frozenset[int]) -> bool:
        """Whether destructive growth clears frontier row by dismantling its owner."""
        owner = self.cluster.row_owner[row]
        dismantlable = owner is not None and not self.cluster._by_id[owner].destructive
        return dismantlable and owner not in destroyed and not self.cluster.eff >> row & 1

    def _activate_frontier(self, st: _Path) -> str:
        """Pick st's next frontier; destructively clear owned ones.

        Returns "closed" when every open check is resolved, "dead" when a
        destruction contradicts the path, "ok" otherwise.
        """
        while True:
            if st.frontier is None:
                if not st.fcts:
                    return "closed"
                st.frontier, st.fcts = st.fcts[0], st.fcts[1:]
                st.fmask ^= 1 << st.frontier
            if not self.destructive or not self._dismantlable(st.frontier, st.destroyed):
                return "ok"
            # colliding with a closed branch: dismantle it, the frontier
            # becomes a violated check this branch explains, and so does
            # every deferred check the dismantling re-exposes
            owner = self.cluster.row_owner[st.frontier]
            destroyed = st.destroyed | {owner}
            if len(destroyed) > self.max_br:
                return "dead"
            fbit = 1 << st.frontier
            freed = self.cluster._rows[owner]
            if freed & st.touched_even & ~fbit:
                return "dead"  # evenly-touched check turned violated
            hit = freed & st.fmask
            if hit:
                st.fcts = tuple(r for r in st.fcts if not hit >> r & 1)
                st.fmask ^= hit
            st.satisfied |= fbit | hit
            st.frontier = None
            st.destroyed = destroyed
            st.dmask |= freed

    def _expand(self, st: _Path) -> list[_Path] | None:
        """Children of st: one per candidate column at its frontier, keeping
        the candidates that open the fewest new checks, cheapest first.

        A child that is not closed and can grow no further (max_gr growths,
        or no column fits the budget) is left out when its activation would
        leave it as it is: popped, it would expand to nothing.  Returns None,
        and counts a rejected instance, when the kept moves would take the
        instance's spawned branches past max_br.
        """
        growths = st.growths + 1
        if growths > self.max_gr:
            return []
        cluster = self.cluster
        m, syndrome, eff, weights = cluster.m, cluster.syndrome_rows, cluster.eff, cluster.weights
        col_owner, row_owner, owned_rows = cluster.col_owner, cluster.row_owner, cluster._rows
        col_masks, budget, destructive = self.col_masks, self.budget, self.destructive
        frontier, fcts, fmask = st.frontier, st.fcts, st.fmask
        destroyed, dmask = st.destroyed, st.dmask
        mechanisms, satisfied, touched_even = st.mechanisms, st.satisfied, st.touched_even
        base = st.weight_used
        fbit = 1 << frontier
        blocked = satisfied | fmask
        moves: list[tuple] = []
        fewest = m.rows  # more new checks than any candidate opens
        for c in m.row_support[frontier]:
            owner = col_owner[c]
            if mechanisms >> c & 1 or (owner is not None and owner not in destroyed):
                continue
            weight = weights[c]
            if base + weight > budget:
                continue
            rows = col_masks[c] & ~fbit
            destroy: set[int] | tuple = ()
            path_dmask = dmask
            auto = 0  # deferred checks a dismantling re-exposes
            if destructive:
                owned = rows & syndrome & ~(eff | fmask | dmask)
                if owned:
                    destroy = {row_owner[r] for r in _bits(owned)}
                    destroy = {b for b in destroy if not cluster._by_id[b].destructive}
                if destroy:
                    if len(destroyed) + len(destroy) > self.max_br:
                        continue
                    freed = 0
                    for bid in destroy:
                        freed |= owned_rows[bid]
                    path_dmask = dmask | freed
                    freed &= ~col_masks[c]
                    if touched_even & freed:
                        continue  # an evenly-touched check would turn violated
                    auto = freed & fmask
            explains = rows & (eff | path_dmask)
            if explains & blocked:
                continue  # second touch on an explained check
            rest = rows ^ explains
            loop_closed = rest & fmask
            new_opens = rest ^ loop_closed
            opens = new_opens.bit_count()
            if opens <= fewest:  # only the moves opening the fewest checks are kept
                if opens < fewest:
                    fewest, moves = opens, []
                moves.append(
                    (weight, c, explains, loop_closed, new_opens, destroy, auto, path_dmask)
                )
        if not moves:
            return []
        if len(moves) > 1:
            spawned = self.spawned + len(moves) - 1
            if spawned > self.max_br:
                self.stats.instances_rejected += 1
                return None
            self.spawned = spawned
            if spawned > self.stats.max_spawned:
                self.stats.max_spawned = spawned
            moves.sort()  # by weight, then column (columns differ)
        touched = touched_even | fbit
        last, min_weight = growths == self.max_gr, cluster.min_weight
        children = []
        for weight, c, explains, loop_closed, new_opens, destroy, auto, path_dmask in moves:
            gone = loop_closed | auto  # deferred checks this move resolves
            used = base + weight
            child_destroyed = destroyed | destroy if destroy else destroyed
            if (new_opens or gone != fmask) and (last or used + min_weight > budget):
                if not destructive:  # a dead leaf
                    continue
                nxt = new_opens & -new_opens
                nxt = nxt.bit_length() - 1 if nxt else next(r for r in fcts if not gone >> r & 1)
                if not self._dismantlable(nxt, child_destroyed):
                    continue
            rest = tuple(r for r in fcts if not gone >> r & 1) if gone else fcts
            child_fmask = fmask ^ gone
            child_frontier = None
            if new_opens:
                low = new_opens & -new_opens
                child_frontier = low.bit_length() - 1
                if new_opens != low:
                    rest += _bits(new_opens ^ low)
                    child_fmask |= new_opens ^ low
            children.append(_Path(
                mechanisms | 1 << c, satisfied | explains | auto, touched | loop_closed,
                child_frontier, rest, child_fmask, used, growths, child_destroyed, path_dmask,
            ))
        if growths > self.stats.max_growths:  # every path's growths pass through here
            self.stats.max_growths = growths
        return children

    def grow(self, seed: _Path) -> ClosedBranch | None:
        """Grow seed's instance depth-first and commit the first path that
        closes; None if no path closes or the instance goes past max_br."""
        self.spawned = 1
        if seed.weight_used > self.budget:
            return None
        stack = [seed]
        while stack:
            st = stack.pop()
            status = self._activate_frontier(st)
            if status == "dead":
                continue
            if status == "closed":
                return self._commit(st)
            children = self._expand(st)
            if children is None:
                return None
            stack += children[::-1]  # first child on top: preorder
        return None

    def _commit(self, st: _Path) -> ClosedBranch:
        for bid in sorted(st.destroyed):
            self.cluster.dismantle(bid)
            self.stats.dismantled += 1
        mechanisms = frozenset(_bits(st.mechanisms))
        branch = ClosedBranch(mechanisms, _bits(st.satisfied), self.destructive)
        self.cluster.add(branch)
        self.stats.branches_closed += 1
        return branch


def _branch_growth_pass(
    destructive: bool, tcts: int, cluster: Cluster, weight: float, params: CBParams,
    stats: DecodeStats | None,
) -> Cluster:
    """Grow, in column order, every column that qualifies as a seed both at
    the start of the pass and, under the then-current eff, when reached."""
    if tcts < 1:
        raise ValueError("tcts must be >= 1")
    eff = cluster.eff
    if not eff:
        return cluster
    masks = cluster.m.col_masks()
    columns = [
        c for c in _candidate_columns(eff, cluster.m)
        if cluster.col_owner[c] is None and _seed(masks[c], tcts, eff)
    ]
    grower = _Grower(destructive, weight, params, cluster, stats or DecodeStats())
    for c in columns:
        eff = cluster.eff
        if not eff:
            break
        trivial = _seed(masks[c], tcts, eff) if cluster.col_owner[c] is None else 0
        if not trivial:
            continue
        frontier = trivial & -trivial
        grower.grow(_Path(
            1 << c, masks[c] & eff, 0, frontier.bit_length() - 1, _bits(trivial ^ frontier),
            trivial ^ frontier, cluster.weights[c], 0, frozenset(), 0,
        ))
    return cluster


def non_dest_branch_growth(
    tcts: int,
    cluster: Cluster,
    weight: float,
    params: CBParams,
    *,
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
    tcts: int,
    cluster: Cluster,
    weight: float,
    params: CBParams,
    *,
    stats: DecodeStats | None = None,
) -> Cluster:
    """non_dest_branch_growth, except that a path may dismantle up to
    params.max_br of the cluster's non-destructive branches it collides with.

    The dismantling happens only when the path closes.
    """
    return _branch_growth_pass(True, tcts, cluster, weight, params, stats)


def run_schedule(
    syndrome: np.ndarray,
    params: CBParams,
    m: BinaryMatrix,
    steps: range,
    budget_for_step,
    *,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> np.ndarray:
    """The decoding schedule shared by the plain and reweighted decoders.

    Per step: a fresh cluster, a weight-1 sweep, non-destructive sweeps for
    tcts = 1..max_tcts, then destructive sweeps each followed by a weight-1
    sweep and a tcts=1 non-destructive cleanup.  Returns the cluster error
    once its flipped checks reproduce the syndrome, the zero vector after
    the last step otherwise.  The cluster checks the syndrome and weights
    against m (ValueError) before any step; a zero syndrome returns zeros.

    A tcts=1 pass right after a weight-1 sweep that adds no branch leaves a
    cluster on which both change nothing.  While the cluster's version stays
    at that value, a cleanup is skipped, and only the rejections it would
    have counted again are added to stats.
    """
    cluster = Cluster(m, syndrome, event_weights)
    if not cluster.eff:
        return cluster.error
    stats = stats if stats is not None else DecodeStats()
    for step in steps:
        if cluster.version:  # each step starts from a cluster with no branches
            cluster = Cluster(m, syndrome, event_weights)
        budget = budget_for_step(step)
        # a version the cleanup leaves unchanged, and the rejections it counts there
        idle_version, idle_rejected = -1, 0

        def non_dest_pass(tcts: int) -> None:
            nonlocal idle_version, idle_rejected
            version, rejected = cluster.version, stats.instances_rejected
            non_dest_branch_growth(tcts, cluster, budget, params, stats=stats)
            if tcts == 1 and cluster.version == version:
                idle_version, idle_rejected = version, stats.instances_rejected - rejected

        weight_1_errors(cluster, stats=stats)
        for tcts in range(1, params.max_tcts + 1):
            non_dest_pass(tcts)
        # once the cluster explains the full syndrome the remaining passes
        # are no-ops, so the early returns below are pure shortcuts
        if not cluster.eff:
            return cluster.error
        for tcts in range(1, params.max_tcts + 1):
            dest_branch_growth(tcts, cluster, budget, params, stats=stats)
            if cluster.version == idle_version:
                stats.instances_rejected += idle_rejected
            else:
                weight_1_errors(cluster, stats=stats)
                non_dest_pass(1)
            if not cluster.eff:
                return cluster.error
    return np.zeros(m.cols, dtype=np.uint8)


def cb_decode(
    syndrome: np.ndarray,
    params: CBParams,
    m: BinaryMatrix,
    *,
    stats: DecodeStats | None = None,
) -> np.ndarray:
    """Recover an error matching the syndrome, or the zero vector on failure.

    Iterates the growth budget from 2 up to max_gr; the first cluster whose
    flipped checks equal the syndrome wins, so lower-weight explanations are
    preferred.  A max_gr below 2 leaves no step to run and raises ValueError.
    """
    if params.max_gr < 2:
        raise ValueError("cb_decode needs max_gr >= 2: its schedule starts at step 2")
    return run_schedule(
        syndrome, params, m, range(2, params.max_gr + 1), lambda step: float(step), stats=stats
    )
