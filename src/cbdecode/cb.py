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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    branch_id: int = -1


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
    """

    def __init__(self, n_rows: int, n_cols: int):
        self.nd_branches: list[ClosedBranch] = []
        self.d_branches: list[ClosedBranch] = []
        self.flipped = zeros_vec(n_rows)
        self.error = zeros_vec(n_cols)
        self._next_id = 0
        self._by_id: dict[int, ClosedBranch] = {}
        self._row_owner: dict[int, int] = {}
        self._col_owner: dict[int, int] = {}

    def add(self, branch: ClosedBranch) -> int:
        branch.branch_id = self._next_id
        self._next_id += 1
        self._by_id[branch.branch_id] = branch
        target = self.nd_branches if branch.mode == NON_DESTRUCTIVE else self.d_branches
        target.append(branch)
        for r in branch.checks_flipped:
            self.flipped[r] ^= 1
            self._row_owner[r] = branch.branch_id
        for c in branch.mechanisms:
            self.error[c] ^= 1
            self._col_owner[c] = branch.branch_id
        return branch.branch_id

    def dismantle(self, branch_id: int) -> ClosedBranch:
        branch = self._by_id.pop(branch_id)
        if branch.mode != NON_DESTRUCTIVE:
            raise ValueError("only non-destructively obtained branches can be dismantled")
        self.nd_branches.remove(branch)
        for r in branch.checks_flipped:
            self.flipped[r] ^= 1
            self._row_owner.pop(r, None)
        for c in branch.mechanisms:
            self.error[c] ^= 1
            self._col_owner.pop(c, None)
        return branch

    def branches(self) -> list[ClosedBranch]:
        return self.nd_branches + self.d_branches

    def row_owner(self, row: int) -> int | None:
        return self._row_owner.get(row)

    def col_owner(self, col: int) -> int | None:
        return self._col_owner.get(col)

    def branch_by_id(self, branch_id: int) -> ClosedBranch:
        return self._by_id[branch_id]

    def is_destructible(self, branch_id: int) -> bool:
        b = self._by_id.get(branch_id)
        return b is not None and b.mode == NON_DESTRUCTIVE

    def matches(self, syndrome: np.ndarray) -> bool:
        return bool(np.array_equal(self.flipped, syndrome))


@dataclass(frozen=True)
class Branch:
    """An in-progress growth path.

    satisfied holds the oddly-touched checks currently explained; frontier is
    the trivial check being grown; fcts are deferred trivial checks; destroyed
    lists branch ids this path would dismantle if it closes.
    """

    mechanisms: frozenset[int]
    satisfied: frozenset[int]
    touched_even: frozenset[int]
    frontier: int | None
    fcts: tuple[int, ...]
    weight_used: float
    growths: int
    spawned: int = 1
    destroyed: frozenset[int] = field(default_factory=frozenset)

    def open_checks(self) -> tuple[int, ...]:
        return self.fcts if self.frontier is None else (self.frontier,) + self.fcts


def verify_closed_branch(
    columns: set[int] | frozenset[int], syndrome: np.ndarray, m: BinaryMatrix
) -> bool:
    """True iff the columns' odd-touched rows are all violated and the
    even-touched rows all trivial in the syndrome."""
    if not columns:
        raise ValueError("closed-branch verification needs at least one column")
    touch: dict[int, int] = {}
    for c in columns:
        if not 0 <= c < m.cols:
            raise ValueError(f"column {c} out of range")
        for r in m.col_support[c]:
            touch[r] = touch.get(r, 0) + 1
    return all((cnt & 1) == int(syndrome[r]) for r, cnt in touch.items())


def _candidate_columns(eff: np.ndarray, m: BinaryMatrix) -> list[int]:
    cols: set[int] = set()
    for r in np.flatnonzero(eff):
        cols.update(m.row_support[int(r)])
    return sorted(cols)


def weight_1_errors(
    syndrome: np.ndarray,
    cluster: Cluster,
    m: BinaryMatrix,
    *,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Close every mechanism whose adjacent checks are all effectively violated."""
    eff = (syndrome ^ cluster.flipped).astype(np.uint8)
    for c in _candidate_columns(eff, m):
        if cluster.col_owner(c) is not None:
            continue
        rows = m.col_support[c]
        if rows and all(eff[r] for r in rows):
            cluster.add(ClosedBranch(frozenset((c,)), rows, NON_DESTRUCTIVE))
            for r in rows:
                eff[r] = 0
            if stats is not None:
                stats.branches_closed += 1
    return cluster


def _mech_weight(col: int, weights: np.ndarray | None) -> float:
    return 1.0 if weights is None else float(weights[col])


def _make_seed(
    col: int,
    tcts: int,
    eff: np.ndarray,
    m: BinaryMatrix,
    weights: np.ndarray | None,
) -> Branch | None:
    nontrivial = [r for r in m.col_support[col] if eff[r]]
    trivial = [r for r in m.col_support[col] if not eff[r]]
    if len(nontrivial) < 1 or len(trivial) != tcts:
        return None
    return Branch(
        mechanisms=frozenset((col,)),
        satisfied=frozenset(nontrivial),
        touched_even=frozenset(),
        frontier=trivial[0],
        fcts=tuple(trivial[1:]),
        weight_used=_mech_weight(col, weights),
        growths=0,
    )


def find_branch_instances(
    tcts: int,
    syndrome: np.ndarray,
    cluster: Cluster,
    m: BinaryMatrix,
    *,
    event_weights: np.ndarray | None = None,
) -> list[Branch]:
    """Seeds: unused columns with >= 1 violated and exactly tcts trivial rows."""
    if tcts < 1:
        raise ValueError("tcts must be >= 1")
    eff = (syndrome ^ cluster.flipped).astype(np.uint8)
    seeds = []
    for c in _candidate_columns(eff, m):
        if cluster.col_owner(c) is not None:
            continue
        seed = _make_seed(c, tcts, eff, m, event_weights)
        if seed is not None:
            seeds.append(seed)
    return seeds


class _Rejected(Exception):
    """Branch instance exceeded max_br; the whole instance is abandoned."""


@dataclass
class _Move:
    column: int
    explains: tuple[int, ...]
    loop_closed: tuple[int, ...]
    new_opens: tuple[int, ...]
    destroy: frozenset[int]
    auto_satisfied: tuple[int, ...]
    weight: float


class _Grower:
    """Depth-first growth of one branch instance."""

    def __init__(
        self,
        mode: str,
        budget: float,
        max_br: int,
        max_growths: int | None,
        cluster: Cluster,
        syndrome: np.ndarray,
        eff: np.ndarray,
        m: BinaryMatrix,
        weights: np.ndarray | None,
        stats: DecodeStats | None,
    ):
        self.destructive = mode == DESTRUCTIVE
        self.mode = mode
        self.budget = budget
        self.max_br = max_br
        self.max_growths = max_growths
        self.cluster = cluster
        self.syndrome = syndrome
        self.eff = eff
        self.m = m
        self.weights = weights
        self.stats = stats
        self.spawned = 1

    def _path_eff(self, row: int, destroyed: frozenset[int]) -> int:
        if self.eff[row]:
            return 1
        owner = self.cluster.row_owner(row)
        if owner is not None and owner in destroyed:
            return 1
        return 0

    def _col_free(self, col: int, destroyed: frozenset[int]) -> bool:
        owner = self.cluster.col_owner(col)
        return owner is None or owner in destroyed

    def _count_spawned(self, alternatives: int) -> None:
        if alternatives <= 1:
            return
        if self.spawned + alternatives - 1 > self.max_br:
            if self.stats is not None:
                self.stats.instances_rejected += 1
            raise _Rejected
        self.spawned += alternatives - 1
        if self.stats is not None:
            self.stats.observe_spawned(self.spawned)

    def _activate_frontier(self, st: Branch) -> tuple[str, Branch]:
        """Pick the next frontier; destructively clear owned ones.

        Returns ("closed", st) when every open check is resolved, ("dead", st)
        when a destruction contradicts the branch, ("ok", st) otherwise.
        """
        while True:
            if st.frontier is None:
                if not st.fcts:
                    return "closed", st
                st = replace(st, frontier=st.fcts[0], fcts=st.fcts[1:])
            if not self.destructive:
                return "ok", st
            owner = self.cluster.row_owner(st.frontier)
            if (
                self.eff[st.frontier]
                or owner is None
                or owner in st.destroyed
                or not self.cluster.is_destructible(owner)
            ):
                return "ok", st
            # colliding with a closed branch: dismantle it, the frontier
            # becomes a violated check this branch explains
            destroyed = st.destroyed | {owner}
            if len(destroyed) > self.max_br:
                return "dead", st
            freed = self.cluster.branch_by_id(owner).checks_flipped
            nxt = self._absorb_freed(
                replace(
                    st,
                    satisfied=st.satisfied | {st.frontier},
                    frontier=None,
                    destroyed=destroyed,
                ),
                freed,
                exclude=st.frontier,
            )
            if nxt is None:
                return "dead", st
            st = nxt

    def _absorb_freed(
        self, st: Branch, freed_rows: tuple[int, ...], exclude: int | None = None
    ) -> Branch | None:
        """Account for checks re-exposed by a dismantled branch."""
        satisfied = set(st.satisfied)
        fcts = list(st.fcts)
        frontier = st.frontier
        for r in freed_rows:
            if r == exclude:
                continue
            if r in st.touched_even:
                return None  # evenly-touched check turned violated: dead path
            if r == frontier:
                satisfied.add(r)
                frontier = None
            elif r in fcts:
                fcts.remove(r)
                satisfied.add(r)
        return replace(
            st,
            satisfied=frozenset(satisfied),
            fcts=tuple(fcts),
            frontier=frontier,
        )

    def _evaluate(self, st: Branch, cand: int) -> _Move | None:
        frontier = st.frontier
        open_set = set(st.fcts)
        rows = self.m.col_support[cand]
        destroy: set[int] = set()
        if self.destructive:
            for r in rows:
                if r == frontier or r in open_set:
                    continue
                if self.eff[r] == 0 and self.syndrome[r] == 1:
                    owner = self.cluster.row_owner(r)
                    if (
                        owner is not None
                        and owner not in st.destroyed
                        and self.cluster.is_destructible(owner)
                    ):
                        destroy.add(owner)
            if destroy and len(st.destroyed | destroy) > self.max_br:
                return None
        all_destroyed = st.destroyed | destroy
        explains: list[int] = []
        loop_closed: list[int] = []
        new_opens: list[int] = []
        for r in rows:
            if r == frontier:
                continue
            if self._path_eff(r, all_destroyed):
                if r in st.satisfied or r in open_set:
                    return None  # second touch on an explained check
                explains.append(r)
            elif r in open_set:
                loop_closed.append(r)
            else:
                new_opens.append(r)
        auto_satisfied: list[int] = []
        if destroy:
            touched = set(rows)
            freed: set[int] = set()
            for bid in destroy:
                freed.update(self.cluster.branch_by_id(bid).checks_flipped)
            for r in sorted(freed - touched):
                if r in st.touched_even:
                    return None
                if r in open_set and r not in loop_closed:
                    auto_satisfied.append(r)
        return _Move(
            column=cand,
            explains=tuple(explains),
            loop_closed=tuple(loop_closed),
            new_opens=tuple(new_opens),
            destroy=frozenset(destroy),
            auto_satisfied=tuple(auto_satisfied),
            weight=_mech_weight(cand, self.weights),
        )

    def _apply(self, st: Branch, mv: _Move) -> Branch:
        fcts = [
            r
            for r in st.fcts
            if r not in mv.loop_closed and r not in mv.auto_satisfied
        ]
        if mv.new_opens:
            opens = sorted(mv.new_opens)
            frontier = opens[0]
            fcts.extend(opens[1:])
        else:
            frontier = None
        return Branch(
            mechanisms=st.mechanisms | {mv.column},
            satisfied=st.satisfied | set(mv.explains) | set(mv.auto_satisfied),
            touched_even=st.touched_even | {st.frontier} | set(mv.loop_closed),
            frontier=frontier,
            fcts=tuple(fcts),
            weight_used=st.weight_used + mv.weight,
            growths=st.growths + 1,
            spawned=self.spawned,
            destroyed=st.destroyed | mv.destroy,
        )

    def _expand(self, st: Branch) -> list[Branch]:
        candidates = [
            c
            for c in self.m.row_support[st.frontier]
            if c not in st.mechanisms and self._col_free(c, st.destroyed)
        ]
        moves = []
        for c in candidates:
            if st.weight_used + _mech_weight(c, self.weights) > self.budget:
                continue
            if self.max_growths is not None and st.growths + 1 > self.max_growths:
                continue
            mv = self._evaluate(st, c)
            if mv is not None:
                moves.append(mv)
        if not moves:
            return []
        min_opens = min(len(mv.new_opens) for mv in moves)
        moves = [mv for mv in moves if len(mv.new_opens) == min_opens]
        moves.sort(key=lambda mv: (mv.weight, mv.column))
        self._count_spawned(len(moves))
        children = [self._apply(st, mv) for mv in moves]
        if self.stats is not None and children:
            self.stats.observe_growths(children[0].growths)
        return children

    def grow(self, seed: Branch) -> ClosedBranch | None:
        if seed.weight_used > self.budget:
            return None
        try:
            stack: list[list[Branch]] = [[seed]]
            while stack:
                level = stack[-1]
                if not level:
                    stack.pop()
                    continue
                status, st = self._activate_frontier(level.pop(0))
                if status == "dead":
                    continue
                if status == "closed":
                    closed = self._commit(st)
                    if closed is not None:
                        return closed
                    continue
                children = self._expand(st)
                if children:
                    stack.append(children)
            return None
        except _Rejected:
            return None

    def _commit(self, st: Branch) -> ClosedBranch | None:
        checks = tuple(sorted(st.satisfied))
        if not checks:
            return None  # even-parity cycle explains nothing
        for bid in sorted(st.destroyed):
            dismantled = self.cluster.dismantle(bid)
            for r in dismantled.checks_flipped:
                self.eff[r] ^= 1
            if self.stats is not None:
                self.stats.dismantled += 1
        branch = ClosedBranch(st.mechanisms, checks, self.mode)
        self.cluster.add(branch)
        for r in checks:
            self.eff[r] ^= 1
        if self.stats is not None:
            self.stats.branches_closed += 1
            self.stats.observe_growths(st.growths)
        return branch


def grow_branch(
    seed: Branch,
    mode: str,
    budget: float,
    params: CBParams,
    cluster: Cluster,
    syndrome: np.ndarray,
    m: BinaryMatrix,
    *,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> ClosedBranch | None:
    """Grow one seed to closure; returns None on rejection or dead end.

    On success the closed branch (and any dismantling it required) is
    committed to the cluster.
    """
    eff = (syndrome ^ cluster.flipped).astype(np.uint8)
    grower = _Grower(
        mode, budget, params.max_br, params.max_gr,
        cluster, syndrome, eff, m, event_weights, stats,
    )
    return grower.grow(seed)


def _branch_growth_pass(
    mode: str,
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    max_br: int,
    max_growths: int | None,
    m: BinaryMatrix,
    event_weights: np.ndarray | None,
    stats: DecodeStats | None,
) -> Cluster:
    eff = (syndrome ^ cluster.flipped).astype(np.uint8)
    if not eff.any():
        return cluster
    seeds = find_branch_instances(
        tcts, syndrome, cluster, m, event_weights=event_weights
    )
    grower = _Grower(
        mode, weight, max_br, max_growths, cluster, syndrome, eff, m, event_weights, stats
    )
    for seed in seeds:
        if not eff.any():
            break
        col = next(iter(seed.mechanisms))
        if cluster.col_owner(col) is not None:
            continue
        fresh = _make_seed(col, tcts, eff, m, event_weights)
        if fresh is None:
            continue
        grower.spawned = 1
        grower.grow(fresh)
    return cluster


def non_dest_branch_growth(
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    max_br: int,
    m: BinaryMatrix,
    *,
    max_growths: int | None = None,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Grow every matching seed non-destructively under the given budgets."""
    return _branch_growth_pass(
        NON_DESTRUCTIVE, tcts, cluster, syndrome, weight, max_br, max_growths,
        m, event_weights, stats,
    )


def dest_branch_growth(
    tcts: int,
    cluster: Cluster,
    syndrome: np.ndarray,
    weight: float,
    max_br: int,
    m: BinaryMatrix,
    *,
    max_growths: int | None = None,
    event_weights: np.ndarray | None = None,
    stats: DecodeStats | None = None,
) -> Cluster:
    """Destructive variant: growth may dismantle earlier closed branches."""
    return _branch_growth_pass(
        DESTRUCTIVE, tcts, cluster, syndrome, weight, max_br, max_growths,
        m, event_weights, stats,
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
                tcts, cluster, syndrome, budget, params.max_br, m,
                max_growths=params.max_gr, event_weights=event_weights, stats=stats,
            )
        # once the cluster explains the full syndrome the remaining passes
        # are no-ops, so the early returns below are pure shortcuts
        if cluster.matches(syndrome):
            return cluster.error.copy()
        for tcts in range(1, params.max_tcts + 1):
            dest_branch_growth(
                tcts, cluster, syndrome, budget, params.max_br, m,
                max_growths=params.max_gr, event_weights=event_weights, stats=stats,
            )
            weight_1_errors(syndrome, cluster, m, stats=stats)
            non_dest_branch_growth(
                1, cluster, syndrome, budget, params.max_br, m,
                max_growths=params.max_gr, event_weights=event_weights, stats=stats,
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
