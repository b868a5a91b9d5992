import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdecode import cb
from cbdecode.cb import (
    CBParams,
    ClosedBranch,
    Cluster,
    DecodeStats,
    cb_decode,
    dest_branch_growth,
    non_dest_branch_growth,
    run_schedule,
    weight_1_errors,
)
from cbdecode.gf2 import BinaryMatrix, mat_vec_mod2, vec_from_support


def syndrome_of(m, cols):
    return mat_vec_mod2(m, vec_from_support(m.cols, cols))


def verify_closed_branch(columns, syndrome, m):
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


# --- verify_closed_branch -------------------------------------------------


def test_verify_single_column():
    m = BinaryMatrix(3, 1, [(0, 0), (2, 0)])
    s = np.array([1, 0, 1], dtype=np.uint8)
    assert verify_closed_branch({0}, s, m)
    assert not verify_closed_branch({0}, np.array([1, 0, 0], dtype=np.uint8), m)


def test_verify_three_mechanism_chain():
    # linear chain: shared checks are touched twice and trivial, the rest
    # are touched once and violated
    m = BinaryMatrix(
        7, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1), (4, 2), (5, 2), (6, 2)]
    )
    s = syndrome_of(m, [0, 1, 2])
    assert s.tolist() == [1, 1, 0, 1, 0, 1, 1]
    assert verify_closed_branch({0, 1, 2}, s, m)
    assert not verify_closed_branch({0, 1}, s, m)


def test_verify_even_parity_pair_against_zero_syndrome():
    # two identical columns cancel everywhere: vacuously closed, but the
    # decoder never emits such a branch (see test_decode_zero_syndrome)
    m = BinaryMatrix(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    zero = np.zeros(2, dtype=np.uint8)
    assert verify_closed_branch({0, 1}, zero, m)


def test_verify_requires_columns():
    m = BinaryMatrix(1, 1, [(0, 0)])
    with pytest.raises(ValueError):
        verify_closed_branch(set(), np.array([0], dtype=np.uint8), m)


# --- weight_1_errors -------------------------------------------------------


def test_weight1_zero_syndrome_noop():
    m = BinaryMatrix.from_dense(np.eye(3, dtype=int))
    cluster = Cluster(m, np.zeros(3, dtype=np.uint8))
    weight_1_errors(cluster)
    assert not cluster.branches()
    assert not cluster.error.any()


def test_weight1_full_column():
    m = BinaryMatrix(3, 2, [(0, 0), (1, 0), (2, 0), (2, 1)])
    s = np.array([1, 1, 1], dtype=np.uint8)
    cluster = Cluster(m, s)
    weight_1_errors(cluster)
    assert cluster.error.tolist() == [1, 0]
    assert cluster.eff == 0


def test_weight1_disjoint_columns_order_independent():
    entries = [(0, 0), (1, 0), (2, 1), (3, 1)]
    m = BinaryMatrix(4, 2, entries)
    swapped = BinaryMatrix(4, 2, [(r, 1 - c) for r, c in entries])
    s = np.array([1, 1, 1, 1], dtype=np.uint8)
    for mat in (m, swapped):
        cluster = Cluster(mat, s)
        weight_1_errors(cluster)
        assert cluster.error.tolist() == [1, 1]
        assert cluster.eff == 0
        assert len(cluster.branches()) == 2


# --- seeds, observed through a growth pass -----------------------------------


def test_seed_classification():
    # c0 has no violated row, c1 no trivial row, c2 two violated and one
    # trivial (row 3): only c2 is a tcts=1 seed.  Weights make a wrongly seeded
    # c0 close {c0, c2} and a wrongly seeded c1 close on its own, while the
    # c2 seed grows through its frontier row 3 to the cheaper c3 and closes
    # at once (no deferred checks), explaining rows 1 and 2.
    m = BinaryMatrix(
        4, 4, [(3, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3)]
    )
    s = np.array([1, 1, 1, 0], dtype=np.uint8)
    weights = np.array([2.0, 1.0, 1.0, 1.0])
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    cluster = Cluster(m, s, weights)
    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 3.0, params, stats=stats)
    (branch,) = cluster.branches()
    assert branch.mechanisms == frozenset({2, 3})
    assert branch.checks_flipped == (1, 2)
    assert cluster.flipped.tolist() == [0, 1, 1, 0]
    assert stats.branches_closed == 1 and stats.max_growths == 1
    for syndrome in (s, np.zeros(4, dtype=np.uint8)):
        with pytest.raises(ValueError):
            non_dest_branch_growth(0, Cluster(m, syndrome), 3.0, params)


def test_seed_tcts_two():
    # c0 {0,1,2} has one violated and two trivial rows: a tcts=2 seed with
    # frontier 1 and row 2 deferred.  From row 1 the one candidate, c2 {1,2},
    # closes the deferred row as a loop; a frontier at row 2 would split
    # between c1 {2} and c2, which max_br=1 rejects, and without the deferred
    # row the growth would take c1 as well.  A tcts=1 pass has no seed.
    m = BinaryMatrix(3, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (1, 2), (2, 2)])
    s = np.array([1, 0, 0], dtype=np.uint8)
    params = CBParams(max_gr=6, max_br=1, max_tcts=3)
    cluster = Cluster(m, s)
    stats = DecodeStats()
    non_dest_branch_growth(2, cluster, 3.0, params, stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0, 2})]
    assert cluster.branches()[0].checks_flipped == (0,)
    assert stats.instances_rejected == 0 and stats.max_growths == 1
    cluster = Cluster(m, s)
    non_dest_branch_growth(1, cluster, 3.0, params)
    assert cluster.branches() == []
    assert not cluster.error.any()


def test_pass_grows_only_seeds_that_qualify_at_start_and_when_reached():
    # violated rows 0, 2, 5.  c0 {0,1} closes first with c1 {1,2}, clearing
    # rows 0 and 2.  c2 {2,3} qualified at the start of the pass but no longer
    # does; c4 {2,5} did not qualify at the start but would now.  Either one,
    # if grown, would close through row 3 (c3) under the budget.
    m = BinaryMatrix(
        6, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 4), (5, 4)]
    )
    s = np.array([1, 0, 1, 0, 0, 1], dtype=np.uint8)
    cluster = Cluster(m, s)
    stats = DecodeStats()
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    non_dest_branch_growth(1, cluster, 3.0, params, stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0, 1})]
    assert cluster.error.tolist() == [1, 1, 0, 0, 0]
    assert cluster.flipped.tolist() == [1, 0, 1, 0, 0, 0]
    assert stats.branches_closed == 1


# --- branch growth ----------------------------------------------------------


def chain_matrix():
    # c0 rows {0,1,2}; c1 rows {2,3,4}: growing c0 through row 2 closes on c1
    return BinaryMatrix(5, 2, [(0, 0), (1, 0), (2, 0), (2, 1), (3, 1), (4, 1)])


def test_grow_immediate_closure():
    m = chain_matrix()
    s = syndrome_of(m, [0, 1])
    cluster = Cluster(m, s)
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 2.0, params, stats=stats)
    (closed,) = cluster.branches()
    assert closed.mechanisms == frozenset({0, 1})
    assert set(closed.checks_flipped) == {0, 1, 3, 4}
    assert cluster.eff == 0
    assert stats.branches_closed == 1
    assert stats.max_growths == 1
    assert stats.max_spawned <= 1


def test_grow_separation_rejected_at_max_br_one():
    # frontier row 1 has two equally minimal candidates, both non-closing
    m = BinaryMatrix(4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (1, 2), (3, 2)])
    s = np.array([1, 0, 0, 0], dtype=np.uint8)
    cluster = Cluster(m, s)
    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 3.0, CBParams(6, 1, 3), stats=stats)
    assert cluster.branches() == []
    assert stats.instances_rejected == 1
    # with room for both branches the growth dead-ends instead of rejecting
    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 3.0, CBParams(6, 2, 3), stats=stats)
    assert cluster.branches() == []
    assert stats.instances_rejected == 0
    assert stats.max_spawned == 2


def test_grow_loop_closure_through_deferred_check():
    # seed c0 with one violated and two trivial checks; the branch separates,
    # then a later growth lands on the deferred check and closes a loop
    m = BinaryMatrix(
        4,
        3,
        [(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (3, 2), (2, 2)],
    )
    s = np.array([1, 0, 0, 0], dtype=np.uint8)
    cluster = Cluster(m, s)
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    non_dest_branch_growth(2, cluster, 3.0, params)
    (closed,) = cluster.branches()
    assert closed.mechanisms == frozenset({0, 1, 2})
    assert closed.checks_flipped == (0,)
    assert cluster.eff == 0
    assert verify_closed_branch(set(closed.mechanisms), s, m)


def fig6_matrix():
    """A central mechanism surrounded by three violated checks, with three
    periphery mechanisms each sharing one of them."""
    entries = [(0, 0), (1, 0), (2, 0)]
    for i in range(3):
        entries += [(i, 1 + i), (3 + 2 * i, 1 + i), (4 + 2 * i, 1 + i)]
    return BinaryMatrix(9, 4, entries)


def test_destructive_growth_dismantles_blocking_branch():
    m = fig6_matrix()
    s = syndrome_of(m, [1, 2, 3])
    assert s.tolist() == [1] * 9
    cluster = Cluster(m, s)
    weight_1_errors(cluster)
    # the central mechanism is claimed first and blocks everything
    assert cluster.error.tolist() == [1, 0, 0, 0]
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    non_dest_branch_growth(1, cluster, 2.0, params)
    assert not cluster.eff == 0
    stats = DecodeStats()
    dest_branch_growth(1, cluster, 2.0, params, stats=stats)
    weight_1_errors(cluster)
    assert stats.dismantled == 1
    assert cluster.eff == 0
    assert cluster.error.tolist() == [0, 1, 1, 1]


def test_destructive_growth_without_prior_branches_matches_non_destructive():
    m = chain_matrix()
    s = syndrome_of(m, [0, 1])
    c1 = Cluster(m, s)
    c2 = Cluster(m, s)
    params = CBParams(max_gr=6, max_br=10, max_tcts=3)
    non_dest_branch_growth(1, c1, 2.0, params)
    dest_branch_growth(1, c2, 2.0, params)
    assert c1.error.tolist() == c2.error.tolist()
    assert c1.eff == 0 and c2.eff == 0


def five_ary_tree_matrix(depth=3, fan=5):
    """Growth tree where every frontier offers `fan` equal candidates and no
    path closes: exploring it all costs fan**depth branches."""
    entries = []
    rows = [0, 1]  # row 0 violated, row 1 the seed frontier
    cols = [0]
    entries += [(0, 0), (1, 0)]
    frontier_rows = [1]
    next_row = 2
    next_col = 1
    for level in range(depth):
        new_frontiers = []
        for fr in frontier_rows:
            for _ in range(fan):
                c = next_col
                next_col += 1
                r = next_row
                next_row += 1
                entries += [(fr, c), (r, c)]
                new_frontiers.append(r)
        frontier_rows = new_frontiers
    return BinaryMatrix(next_row, next_col, entries)


def test_branch_budget_counts_explored_tree():
    m = five_ary_tree_matrix()
    s = np.zeros(m.rows, dtype=np.uint8)
    s[0] = 1
    cluster = Cluster(m, s)  # c0 is the only seed

    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 4.0, CBParams(6, 125, 3), stats=stats)
    assert cluster.branches() == []
    assert stats.instances_rejected == 0
    assert stats.max_spawned == 125  # 5^3 explored branches fit exactly

    stats = DecodeStats()
    non_dest_branch_growth(1, cluster, 4.0, CBParams(6, 124, 3), stats=stats)
    assert cluster.branches() == []
    assert stats.instances_rejected == 1


# --- budget and rejection rules of destructive growth --------------------------
#
# Each case primes a cluster with the weight-1 sweep and runs one destructive
# pass in which exactly one rule stops a path that would otherwise close.


def primed(m, s, weights=None):
    cluster = Cluster(m, s, weights)
    weight_1_errors(cluster)
    return cluster


def test_frontier_dismantling_stops_at_max_br():
    # c0 {0} and c1 {2} close at weight 1.  The tcts=2 seed c2 {0,1,2} has
    # both trivial rows owned: dismantling c0 at its frontier and c1 at its
    # deferred row 2 takes two branches, one more than max_br=1 allows.
    m = BinaryMatrix(3, 3, [(0, 0), (2, 1), (0, 2), (1, 2), (2, 2)])
    s = np.array([1, 1, 1], dtype=np.uint8)
    cluster = primed(m, s)
    dest_branch_growth(2, cluster, 3.0, CBParams(6, 1, 3))
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0}), frozenset({1})]
    stats = DecodeStats()
    cluster = primed(m, s)
    dest_branch_growth(2, cluster, 3.0, CBParams(6, 2, 3), stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({2})]
    assert cluster.branches()[0].checks_flipped == (0, 1, 2)
    assert stats.dismantled == 2 and cluster.eff == 0


def test_dead_path_is_dropped_not_grown():
    # c0 {1} and c3 {0} close at weight 1.  The tcts=2 seed c1 {0,1,2}
    # dismantles c3 at its frontier row 0, then dead-ends at row 1, whose
    # owner c0 would be a second dismantled branch under max_br=1.  Grown
    # from row 1 anyway, the path would close at once with c2 {1}.
    m = BinaryMatrix(3, 4, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (0, 3)])
    s = np.array([1, 1, 1], dtype=np.uint8)
    cluster = primed(m, s)
    stats = DecodeStats()
    dest_branch_growth(2, cluster, 2.0, CBParams(6, 1, 3), stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0}), frozenset({3})]
    assert stats.branches_closed == 0 and stats.dismantled == 0


def test_candidate_whose_destroy_set_exceeds_max_br_is_skipped():
    # c0 {1} and c3 {0} close at weight 1.  The seed c2 {2,3} grows from row
    # 2 only through c1 {0,1,2}, which would dismantle both: more than
    # max_br=1, so the path has no move.  With max_br=2 it closes.
    m = BinaryMatrix(
        4, 4, [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2), (3, 2), (0, 3)]
    )
    s = np.array([1, 1, 0, 1], dtype=np.uint8)
    cluster = primed(m, s)
    dest_branch_growth(1, cluster, 2.0, CBParams(6, 1, 3))
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0}), frozenset({3})]
    stats = DecodeStats()
    cluster = primed(m, s)
    dest_branch_growth(1, cluster, 2.0, CBParams(6, 2, 3), stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({1, 2})]
    assert stats.dismantled == 2 and cluster.eff == 0


def test_seed_heavier_than_the_budget_is_not_grown():
    # c0 {1} closes at weight 1.  The seed c1 {0,1} weighs 3.0; its frontier
    # row 1 is c0's, so a destructive path would close with no growth at all.
    m = BinaryMatrix(2, 2, [(1, 0), (0, 1), (1, 1)])
    s = np.array([1, 1], dtype=np.uint8)
    weights = np.array([2.0, 3.0])
    params = CBParams(6, 10, 3)
    cluster = primed(m, s, weights)
    dest_branch_growth(1, cluster, 2.5, params)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0})]
    cluster = primed(m, s, weights)
    dest_branch_growth(1, cluster, 3.0, params)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({1})]


def test_dismantling_may_not_violate_a_loop_closed_check():
    # c3 {2,3} closes at weight 1.  The tcts=3 seed c0 {0,1,2,3} grows from
    # row 1 through c1 {1,3}, closing its deferred row 3 as a loop.  Its next
    # frontier, row 2, is c3's, but dismantling c3 would turn the now evenly
    # touched row 3 violated: the path is dead.
    m = BinaryMatrix(4, 4, [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (3, 1), (2, 3), (3, 3)])
    s = np.array([1, 0, 1, 1], dtype=np.uint8)
    cluster = primed(m, s)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({3})]
    dest_branch_growth(3, cluster, 4.0, CBParams(6, 10, 3))
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({3})]


def test_candidate_may_not_violate_a_loop_closed_check():
    # c3 {2,3} closes at weight 1.  The tcts=2 seed c0 {0,1,2} grows from row
    # 1 through c1 {1,2,4}, closing its deferred row 2 as a loop and opening
    # row 4.  From row 4, c2 {3,4} would dismantle c3 and so turn the evenly
    # touched row 2 violated: the path has no move.
    m = BinaryMatrix(
        5, 4,
        [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (4, 1), (3, 2), (4, 2), (2, 3), (3, 3)],
    )
    s = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    cluster = primed(m, s)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({3})]
    dest_branch_growth(2, cluster, 3.0, CBParams(6, 10, 3))
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({3})]


def test_path_at_the_budget_closes_by_dismantling():
    # c2 {2} closes at weight 1.  The tcts=2 seed c0 {0,1,2} grows from row 1
    # through c1 {1} to a path that has used the whole budget, with row 2
    # deferred.  It cannot grow; non-destructively it is a dead end, but
    # destructive growth clears row 2 by dismantling c2 and closes it.
    m = BinaryMatrix(3, 3, [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)])
    s = np.array([1, 0, 1], dtype=np.uint8)
    params = CBParams(6, 10, 3)
    cluster = primed(m, s)
    non_dest_branch_growth(2, cluster, 2.0, params)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({2})]
    stats = DecodeStats()
    dest_branch_growth(2, cluster, 2.0, params, stats=stats)
    assert [b.mechanisms for b in cluster.branches()] == [frozenset({0, 1})]
    assert stats.dismantled == 1 and cluster.eff == 0


# --- invariants on small random problems ------------------------------------


@st.composite
def small_problems(draw):
    rows = draw(st.integers(3, 8))
    cols = draw(st.integers(3, 12))
    entries = []
    for c in range(cols):
        support = draw(st.sets(st.integers(0, rows - 1), min_size=1, max_size=min(4, rows)))
        entries += [(r, c) for r in support]
    m = BinaryMatrix(rows, cols, entries)
    error = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    syndrome = syndrome_of(m, [c for c, e in enumerate(error) if e])
    params = CBParams(draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(1, 4), min_size=cols, max_size=cols)), float)
    return m, syndrome, params, weights


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_problems())
def test_schedule_invariants(problem):
    """Sound outputs, budgets kept, every branch closed when committed (its
    oddly-touched checks violated and its evenly-touched ones trivial under
    the effective syndrome of that moment), and after every add and every
    dismantling the cluster's vector views agree with its row mask and with
    each other."""
    m, syndrome, params, weights = problem
    unclosed = []
    inconsistent = []
    add, dismantle = Cluster.add, Cluster.dismantle

    def check_views(cluster):
        flipped = cluster.flipped
        packed = sum(1 << int(r) for r in np.flatnonzero(flipped))
        if packed != cluster.flipped_rows or not np.array_equal(
            mat_vec_mod2(m, cluster.error), flipped
        ):
            inconsistent.append(cluster.version)

    def checked_add(cluster, branch):
        eff = syndrome ^ cluster.flipped
        if not verify_closed_branch(branch.mechanisms, eff, m):
            unclosed.append(branch)
        bid = add(cluster, branch)
        check_views(cluster)
        return bid

    def checked_dismantle(cluster, branch_id):
        branch = dismantle(cluster, branch_id)
        check_views(cluster)
        return branch

    stats = DecodeStats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "add", checked_add)
        mp.setattr(Cluster, "dismantle", checked_dismantle)
        if weights is None:
            out = cb_decode(syndrome, params, m, stats=stats)
        else:
            w_max = float(weights.max())
            out = run_schedule(
                syndrome, params, m, range(1, params.max_gr + 1), lambda step: step * w_max,
                event_weights=weights, stats=stats,
            )
    assert unclosed == [] and inconsistent == []
    if out.any():
        assert np.array_equal(mat_vec_mod2(m, out), syndrome)
    assert stats.max_spawned <= params.max_br
    assert stats.max_growths <= params.max_gr


# --- cb_decode ---------------------------------------------------------------


def test_decode_zero_syndrome(bb72):
    params = CBParams(6, 10, 3)
    out = cb_decode(np.zeros(36, dtype=np.uint8), params, bb72.hz)
    assert not out.any()


def test_decode_single_weight_one_error(bb72):
    params = CBParams(6, 10, 3)
    for q in (0, 17, 71):
        e = vec_from_support(72, [q])
        s = mat_vec_mod2(bb72.hz, e)
        out = cb_decode(s, params, bb72.hz)
        assert np.array_equal(out, e)


def test_decode_weight_two_errors_match_brute_force(bb72):
    m = bb72.hz
    params = CBParams(6, 10, 3)
    col_masks = []
    for c in range(m.cols):
        x = 0
        for r in m.col_support[c]:
            x |= 1 << r
        col_masks.append(x)
    oracle: dict[int, tuple[int, int]] = {}
    for w in (1, 2, 3):
        for combo in itertools.combinations(range(m.cols), w):
            key = 0
            for c in combo:
                key ^= col_masks[c]
            if key in oracle:
                mw, cnt = oracle[key]
                if w == mw:
                    oracle[key] = (mw, cnt + 1)
            else:
                oracle[key] = (w, 1)

    rng = np.random.default_rng(2)
    pairs = [tuple(sorted(rng.choice(72, size=2, replace=False))) for _ in range(120)]
    for combo in pairs:
        e = vec_from_support(72, combo)
        s = mat_vec_mod2(m, e)
        out = cb_decode(s, params, m)
        assert np.array_equal(mat_vec_mod2(m, out), s)
        key = 0
        for r in np.flatnonzero(s):
            key |= 1 << int(r)
        min_w, count = oracle[key]
        if count == 1:
            assert int(out.sum()) == min_w


def test_decode_soundness_random_shots(bb72):
    params = CBParams(6, 10, 3)
    rng = np.random.default_rng(31)
    stats = DecodeStats()
    for _ in range(150):
        e = (rng.random(72) < 0.06).astype(np.uint8)
        s = mat_vec_mod2(bb72.hz, e)
        out = cb_decode(s, params, bb72.hz, stats=stats)
        if out.any():
            assert np.array_equal(mat_vec_mod2(bb72.hz, out), s)
    assert stats.max_spawned <= params.max_br
    assert stats.max_growths <= params.max_gr


def test_a_first_step_win_packs_the_syndrome_once(bb72, monkeypatch):
    # the cluster packs its syndrome when built; no stage pass packs it again
    packs, sweeps = [], []
    pack, sweep = cb._vec_to_int, cb.weight_1_errors
    monkeypatch.setattr(cb, "_vec_to_int", lambda v: packs.append(1) or pack(v))
    monkeypatch.setattr(cb, "weight_1_errors", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    e = vec_from_support(72, [0, 17])
    out = cb_decode(mat_vec_mod2(bb72.hz, e), CBParams(6, 10, 3), bb72.hz)
    assert np.array_equal(out, e)
    assert len(sweeps) == 1  # won at the first step, before any destructive pass
    assert len(packs) == 1


def test_cb_decode_rejects_a_schedule_with_no_step(bb72):
    # the plain schedule starts at step 2, so max_gr=1 would run no step and
    # return zeros for every nonzero syndrome
    e = vec_from_support(72, [5])
    s = mat_vec_mod2(bb72.hz, e)
    with pytest.raises(ValueError, match="max_gr >= 2"):
        cb_decode(s, CBParams(1, 10, 3), bb72.hz)
    assert np.array_equal(cb_decode(s, CBParams(2, 10, 3), bb72.hz), e)


def test_decode_monotone_in_max_gr(bb72):
    rng = np.random.default_rng(8)
    small = CBParams(3, 8, 3)
    large = CBParams(6, 8, 3)
    for _ in range(60):
        e = (rng.random(72) < 0.05).astype(np.uint8)
        s = mat_vec_mod2(bb72.hz, e)
        out_small = cb_decode(s, small, bb72.hz)
        if out_small.any() or not s.any():
            out_large = cb_decode(s, large, bb72.hz)
            assert np.array_equal(mat_vec_mod2(bb72.hz, out_large), s)


# --- Cluster bookkeeping ------------------------------------------------------


def test_cluster_add_dismantle_consistency():
    m = chain_matrix()
    cluster = Cluster(m, np.zeros(m.rows, dtype=np.uint8))
    b1 = ClosedBranch(frozenset({0}), (0, 1, 2), False)
    bid = cluster.add(b1)
    assert cluster.flipped.tolist() == [1, 1, 1, 0, 0]
    assert cluster.error.tolist() == [1, 0]
    assert np.array_equal(mat_vec_mod2(m, cluster.error), cluster.flipped)
    assert cluster.row_owner[1] == bid and cluster.col_owner[0] == bid
    cluster.dismantle(bid)
    assert not cluster.flipped.any() and not cluster.error.any()
    assert cluster.row_owner[1] is None


def test_cluster_rejects_dismantling_destructive_branches():
    cluster = Cluster(BinaryMatrix.from_dense(np.eye(3, dtype=int)), np.zeros(3, dtype=np.uint8))
    bid = cluster.add(ClosedBranch(frozenset({1}), (1,), True))
    before = cluster.branches()
    # a refused dismantling leaves the cluster as it was, so it is refused again
    for _ in range(2):
        with pytest.raises(ValueError):
            cluster.dismantle(bid)
        assert cluster.branches() == before
        assert cluster.flipped.tolist() == [0, 1, 0]
        assert cluster.row_owner[1] == bid and cluster.col_owner[1] == bid


@pytest.mark.parametrize("syndrome_len, weights_len", [
    (None, 10), (None, 71), (None, 200), (5, None), (5, 72),
], ids=["weights-10", "weights-71", "weights-200", "syndrome-5", "syndrome-5-weighted"])
def test_cluster_and_schedule_check_the_problem_shapes(bb72, syndrome_len, weights_len):
    # weights of the wrong length used to raise a stray IndexError on some
    # syndromes and decode the rest, and a stage pass took a short syndrome
    m = bb72.hz
    weights = None if weights_len is None else np.linspace(1.0, 2.0, weights_len)
    rng = np.random.default_rng(5)
    syndromes = [mat_vec_mod2(m, (rng.random(m.cols) < 0.06).astype(np.uint8)) for _ in range(20)]
    syndromes = [s[:syndrome_len] for s in syndromes if s.any()]
    syndromes.append(np.zeros(syndrome_len or m.rows, dtype=np.uint8))
    for s in syndromes:
        with pytest.raises(ValueError):
            Cluster(m, s, weights)
        for steps in (range(1, 7), range(0)):  # checked even when no step runs
            with pytest.raises(ValueError):
                run_schedule(s, CBParams(6, 10, 3), m, steps, float, event_weights=weights)


def test_cluster_and_schedule_reject_a_nan_event_weight():
    # base + nan > budget is False, so a NaN column was never pruned and the
    # schedule decoded on
    m = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]])
    s = np.array([1, 0], dtype=np.uint8)
    weights = [np.nan, 1.0, 1.0]
    with pytest.raises(ValueError, match="NaN"):
        Cluster(m, s, weights)
    with pytest.raises(ValueError, match="NaN"):
        run_schedule(s, CBParams(6, 10, 3), m, range(1, 7), float, event_weights=weights)
