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
branches a separation may spawn, and the weight budget caps the accumulated
mechanism weight (mechanism count in plain mode, event weights when driven
by belief-propagation marginals).

The schedule (run_schedule) is built from three stage passes, each acting on
a Cluster in place: weight_1_errors closes every mechanism whose checks are
all violated, non_dest_branch_growth grows every seed with a given number of
trivial checks (tcts) into a closed branch, and dest_branch_growth does the
same while dismantling earlier closed branches it collides with.  They are
the stage API: a caller observes a stage by running it on its own cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import BinaryMatrix, zeros_vec

NON_DESTRUCTIVE = "non-destructive"
DESTRUCTIVE = "destructive"


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
    """A committed closed branch: its mechanisms and the checks it explains."""

    mechanisms: frozenset[int]
    checks_flipped: tuple[int, ...]
    mode: str


@dataclass
class DecodeStats:
    """Instrumentation counters accumulated across decode calls."""

    max_spawned: int = 0
    max_growths: int = 0
    branches_closed: int = 0
    instances_rejected: int = 0
    dismantled: int = 0

    def observe_spawned(self, value: int) -> None:
        if value > self.max_spawned:
            self.max_spawned = value

    def observe_growths(self, value: int) -> None:
        if value > self.max_growths:
            self.max_growths = value


class Cluster:
    """Accumulates closed branches and the checks/mechanisms they cover.

    Maintains flipped_checks = noise_matrix . error (mod 2) incrementally;
    each flipped check and each used mechanism is owned by exactly one live
    branch, which is what destructive growth needs to dismantle precisely.
    Live branches are kept by id, owners in the lists row_owner and
    col_owner indexed by row and by column (None: no owner), and the ids of
    live non-destructive branches, the ones destructive growth may
    dismantle, in a set.
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.flipped = zeros_vec(n_rows)
        self.error = zeros_vec(n_cols)
        self._next_id = 0
        self._by_id: dict[int, ClosedBranch] = {}
        self.row_owner: list[int | None] = [None] * n_rows
        self.col_owner: list[int | None] = [None] * n_cols
        self._destructible: set[int] = set()

    def add(self, branch: ClosedBranch) -> int:
        bid = self._next_id
        self._next_id += 1
        self._by_id[bid] = branch
        if branch.mode == NON_DESTRUCTIVE:
            self._destructible.add(bid)
        for r in branch.checks_flipped:
            self.flipped[r] ^= 1
            self.row_owner[r] = bid
        for c in branch.mechanisms:
            self.error[c] ^= 1
            self.col_owner[c] = bid
        return bid

    def dismantle(self, branch_id: int) -> ClosedBranch:
        branch = self._by_id[branch_id]
        if branch_id not in self._destructible:
            raise ValueError("only non-destructively obtained branches can be dismantled")
        del self._by_id[branch_id]
        self._destructible.remove(branch_id)
        for r in branch.checks_flipped:
            self.flipped[r] ^= 1
            self.row_owner[r] = None
        for c in branch.mechanisms:
            self.error[c] ^= 1
            self.col_owner[c] = None
        return branch

    def branches(self) -> list[ClosedBranch]:
        """The live branches in id order (ids rise as branches are added)."""
        return list(self._by_id.values())

    def matches(self, syndrome: np.ndarray) -> bool:
        return bool(np.array_equal(self.flipped, syndrome))


def _candidate_columns(eff: list[int], m: BinaryMatrix) -> list[int]:
    cols: set[int] = set()
    for r, violated in enumerate(eff):
        if violated:
            cols.update(m.row_support[r])
    return sorted(cols)


def weight_1_errors(
    syndrome: np.ndarray,
    cluster: Cluster,
    m: BinaryMatrix,
    *,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Close every mechanism whose adjacent checks are all effectively violated."""
    eff = (syndrome ^ cluster.flipped).tolist()
    for c in _candidate_columns(eff, m):
        if cluster.col_owner[c] is not None:
            continue
        rows = m.col_support[c]
        if rows and all(eff[r] for r in rows):
            cluster.add(ClosedBranch(frozenset((c,)), rows, NON_DESTRUCTIVE))
            for r in rows:
                eff[r] = 0
            if stats is not None:
                stats.branches_closed += 1
    return cluster


def _seed(col: int, tcts: int, eff: list[int], m: BinaryMatrix) -> list[int] | None:
    """The trivial rows of col under eff, the seed's frontier then its deferred
    checks; None when col has no violated row or not exactly tcts trivial ones."""
    rows = m.col_support[col]
    trivial = []
    for r in rows:  # plain loop: cheaper than a comprehension on so few rows
        if not eff[r]:
            trivial.append(r)
    if len(trivial) != tcts or len(trivial) == len(rows):
        return None
    return trivial


class _Rejected(Exception):
    """Branch instance exceeded max_br; the whole instance is abandoned."""


class _Path:
    """One branch path of a growing instance.

    satisfied holds the oddly-touched checks currently explained; frontier is
    the trivial check being grown (None: pick the next deferred one); fcts
    are the deferred trivial checks; destroyed lists the branch ids this path
    would dismantle if it closes.  A path sits on the growth stack once.  Its
    fields are rebound, never mutated in place, so children may share their
    parent's sets.
    """

    __slots__ = (
        "mechanisms", "satisfied", "touched_even", "frontier", "fcts",
        "weight_used", "growths", "destroyed",
    )

    def __init__(
        self, mechanisms, satisfied, touched_even, frontier, fcts, weight_used, growths, destroyed
    ):
        self.mechanisms = mechanisms
        self.satisfied = satisfied
        self.touched_even = touched_even
        self.frontier = frontier
        self.fcts = fcts
        self.weight_used = weight_used
        self.growths = growths
        self.destroyed = destroyed


class _Grower:
    """Depth-first growth of branch instances against one cluster.

    The effective syndrome eff (updated in place as branches commit) and the
    syndrome are int lists, and the mechanism weights one float per column
    (1.0 in plain mode), so the inner loops index Python lists only.
    """

    def __init__(
        self,
        mode: str,
        budget: float,
        params: CBParams,
        cluster: Cluster,
        syndrome: np.ndarray,
        eff: list[int],
        m: BinaryMatrix,
        weights: np.ndarray | None,
        stats: DecodeStats,
    ):
        self.destructive = mode == DESTRUCTIVE
        self.budget = budget
        self.max_br = params.max_br
        self.max_gr = params.max_gr
        self.cluster = cluster
        self.syndrome = np.asarray(syndrome).tolist()
        self.eff = eff
        self.m = m
        if weights is None:
            self.weights = [1.0] * m.cols
        else:
            self.weights = np.asarray(weights, dtype=np.float64).tolist()
        self.stats = stats
        self.spawned = 1

    def _count_spawned(self, alternatives: int) -> None:
        if alternatives <= 1:
            return
        if self.spawned + alternatives - 1 > self.max_br:
            self.stats.instances_rejected += 1
            raise _Rejected
        self.spawned += alternatives - 1
        self.stats.observe_spawned(self.spawned)

    def _activate_frontier(self, st: _Path) -> str:
        """Pick st's next frontier; destructively clear owned ones.

        Returns "closed" when every open check is resolved, "dead" when a
        destruction contradicts the path, "ok" otherwise.
        """
        cluster = self.cluster
        while True:
            if st.frontier is None:
                if not st.fcts:
                    return "closed"
                st.frontier, st.fcts = st.fcts[0], st.fcts[1:]
            if not self.destructive:
                return "ok"
            frontier = st.frontier
            owner = cluster.row_owner[frontier]
            if (
                self.eff[frontier]
                or owner in st.destroyed
                or owner not in cluster._destructible
            ):
                return "ok"
            # colliding with a closed branch: dismantle it, the frontier
            # becomes a violated check this branch explains, and so does
            # every deferred check the dismantling re-exposes
            destroyed = st.destroyed | {owner}
            if len(destroyed) > self.max_br:
                return "dead"
            satisfied = set(st.satisfied)
            satisfied.add(frontier)
            fcts = list(st.fcts)
            for r in cluster._by_id[owner].checks_flipped:
                if r == frontier:
                    continue
                if r in st.touched_even:
                    return "dead"  # evenly-touched check turned violated
                if r in fcts:
                    fcts.remove(r)
                    satisfied.add(r)
            st.satisfied = frozenset(satisfied)
            st.fcts = tuple(fcts)
            st.frontier = None
            st.destroyed = destroyed

    def _expand(self, st: _Path) -> list[_Path]:
        """Children of st: one per candidate column at its frontier, keeping
        the candidates that open the fewest new checks, cheapest first."""
        growths = st.growths + 1
        if growths > self.max_gr:
            return []
        cluster, eff, syndrome, weights = self.cluster, self.eff, self.syndrome, self.weights
        col_owner, row_owner = cluster.col_owner, cluster.row_owner
        col_support, budget = self.m.col_support, self.budget
        frontier, fcts, destroyed = st.frontier, st.fcts, st.destroyed
        mechanisms, satisfied, touched_even = st.mechanisms, st.satisfied, st.touched_even
        base = st.weight_used
        moves = []
        for c in self.m.row_support[frontier]:
            owner = col_owner[c]
            if c in mechanisms or (owner is not None and owner not in destroyed):
                continue
            weight = weights[c]
            if base + weight > budget:
                continue
            rows = col_support[c]
            destroy: set[int] | tuple = ()
            if self.destructive:
                destroy = set()
                for r in rows:
                    if r != frontier and r not in fcts and not eff[r] and syndrome[r] == 1:
                        owner = row_owner[r]
                        if owner not in destroyed and owner in cluster._destructible:
                            destroy.add(owner)
                if destroy and len(destroyed | destroy) > self.max_br:
                    continue
            path_destroyed = destroyed | destroy if destroy else destroyed
            explains: list[int] = []
            loop_closed: list[int] = []
            new_opens: list[int] = []
            for r in rows:
                if r == frontier:
                    continue
                if eff[r] or (path_destroyed and row_owner[r] in path_destroyed):
                    if r in satisfied or r in fcts:
                        break  # second touch on an explained check
                    explains.append(r)
                elif r in fcts:
                    loop_closed.append(r)
                else:
                    new_opens.append(r)
            else:
                auto_satisfied: list[int] = []
                if destroy:
                    freed: set[int] = set()
                    for bid in destroy:
                        freed.update(cluster._by_id[bid].checks_flipped)
                    freed.difference_update(rows)
                    if not touched_even.isdisjoint(freed):
                        continue  # an evenly-touched check would turn violated
                    auto_satisfied = [r for r in sorted(freed) if r in fcts]
                moves.append(
                    (len(new_opens), weight, c, explains, loop_closed, new_opens,
                     destroy, auto_satisfied)
                )
        if not moves:
            return []
        if len(moves) > 1:
            fewest = min(mv[0] for mv in moves)
            moves = [mv for mv in moves if mv[0] == fewest]
            moves.sort(key=lambda mv: (mv[1], mv[2]))
            self._count_spawned(len(moves))
        touched = touched_even | {frontier}
        children = []
        for _, weight, c, explains, loop_closed, new_opens, destroy, auto_satisfied in moves:
            rest = [r for r in fcts if r not in loop_closed and r not in auto_satisfied]
            child_frontier = None
            if new_opens:
                new_opens.sort()
                child_frontier = new_opens[0]
                rest.extend(new_opens[1:])
            children.append(_Path(
                mechanisms | {c},
                satisfied.union(explains, auto_satisfied),
                touched.union(loop_closed),
                child_frontier,
                tuple(rest),
                base + weight,
                growths,
                destroyed | destroy if destroy else destroyed,
            ))
        self.stats.observe_growths(growths)
        return children

    def grow(self, seed: _Path) -> ClosedBranch | None:
        if seed.weight_used > self.budget:
            return None
        try:
            stack = [seed]
            while stack:
                st = stack.pop()
                status = self._activate_frontier(st)
                if status == "dead":
                    continue
                if status == "closed":
                    closed = self._commit(st)
                    if closed is not None:
                        return closed
                    continue
                stack += self._expand(st)[::-1]  # first child on top: preorder
            return None
        except _Rejected:
            return None

    def _commit(self, st: _Path) -> ClosedBranch | None:
        checks = tuple(sorted(st.satisfied))
        if not checks:
            return None  # even-parity cycle explains nothing
        for bid in sorted(st.destroyed):
            dismantled = self.cluster.dismantle(bid)
            for r in dismantled.checks_flipped:
                self.eff[r] ^= 1
            self.stats.dismantled += 1
        mode = DESTRUCTIVE if self.destructive else NON_DESTRUCTIVE
        branch = ClosedBranch(st.mechanisms, checks, mode)
        self.cluster.add(branch)
        for r in checks:
            self.eff[r] ^= 1
        self.stats.branches_closed += 1
        self.stats.observe_growths(st.growths)
        return branch


def _branch_growth_pass(
    mode: str,
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    params: CBParams,
    m: BinaryMatrix,
    event_weights: np.ndarray | None,
    stats: DecodeStats | None,
) -> Cluster:
    """Grow, in column order, every column that qualifies as a seed both at
    the start of the pass and, under the then-current eff, when reached."""
    if tcts < 1:
        raise ValueError("tcts must be >= 1")
    eff = (syndrome ^ cluster.flipped).tolist()
    if not any(eff):
        return cluster
    columns = [
        c for c in _candidate_columns(eff, m)
        if cluster.col_owner[c] is None and _seed(c, tcts, eff, m) is not None
    ]
    grower = _Grower(
        mode, weight, params, cluster, syndrome, eff, m, event_weights, stats or DecodeStats()
    )
    for c in columns:
        if not any(eff):
            break
        trivial = _seed(c, tcts, eff, m) if cluster.col_owner[c] is None else None
        if trivial is None:
            continue
        grower.spawned = 1
        grower.grow(_Path(
            frozenset((c,)), frozenset(m.col_support[c]).difference(trivial), frozenset(),
            trivial[0], tuple(trivial[1:]), grower.weights[c], 0, frozenset(),
        ))
    return cluster


def non_dest_branch_growth(
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    params: CBParams,
    m: BinaryMatrix,
    *,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Grow every seed with tcts trivial checks into a closed branch, without
    touching the cluster's earlier branches.

    A seed is an unowned column with >= 1 violated and exactly tcts trivial
    checks.  Each path keeps its mechanism weight within `weight` and its
    growths within params.max_gr, and an instance that spawns more than
    params.max_br branches is abandoned.  Closed branches are added to the
    cluster, which is returned.
    """
    return _branch_growth_pass(
        NON_DESTRUCTIVE, tcts, cluster, syndrome, weight, params, m, event_weights, stats
    )


def dest_branch_growth(
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    params: CBParams,
    m: BinaryMatrix,
    *,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> Cluster:
    """non_dest_branch_growth, except that a path may dismantle up to
    params.max_br of the cluster's non-destructive branches it collides with.

    The dismantling happens only when the path closes.
    """
    return _branch_growth_pass(
        DESTRUCTIVE, tcts, cluster, syndrome, weight, params, m, event_weights, stats
    )


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
    the last step otherwise.
    """
    syndrome = np.asarray(syndrome, dtype=np.uint8)
    if syndrome.shape != (m.rows,):
        raise ValueError("syndrome length must equal the matrix row count")
    if not syndrome.any():
        return zeros_vec(m.cols)
    for step in steps:
        budget = budget_for_step(step)
        cluster = Cluster(m.rows, m.cols)
        weight_1_errors(syndrome, cluster, m, stats=stats)
        for tcts in range(1, params.max_tcts + 1):
            non_dest_branch_growth(
                tcts, cluster, syndrome, budget, params, m,
                event_weights=event_weights, stats=stats,
            )
        # once the cluster explains the full syndrome the remaining passes
        # are no-ops, so the early returns below are pure shortcuts
        if cluster.matches(syndrome):
            return cluster.error.copy()
        for tcts in range(1, params.max_tcts + 1):
            dest_branch_growth(
                tcts, cluster, syndrome, budget, params, m,
                event_weights=event_weights, stats=stats,
            )
            weight_1_errors(syndrome, cluster, m, stats=stats)
            non_dest_branch_growth(
                1, cluster, syndrome, budget, params, m,
                event_weights=event_weights, stats=stats,
            )
            if cluster.matches(syndrome):
                return cluster.error.copy()
    return zeros_vec(m.cols)


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
    preferred.
    """
    return run_schedule(
        syndrome,
        params,
        m,
        range(2, params.max_gr + 1),
        lambda step: float(step),
        stats=stats,
    )
