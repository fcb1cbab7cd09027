import functools
import gc
import random
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames import strategy
from scoregames.arena import (
    Arena,
    MullerCondition,
    SizeLimitError,
    bit,
    enumerate_loops,
    f1_loops,
    iter_bits,
)
from scoregames.cli import parse_strategy, serialize_strategy
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.reduction import Search, build_safety_game
from scoregames.safety_framework import monitor_for, solve_via_safety
from scoregames.safety_solver import solve_safety
from scoregames.scoring import family_of
from scoregames.strategy import (
    BOTTOM,
    FiniteStateStrategy,
    build_antichain_strategy,
    build_permissive_strategy,
    check_subsumption_bounded,
    consistent_product,
    solve_muller,
    verify_bounded_scores,
)

from reference import (
    class_of,
    class_sheet,
    entries_init,
    entries_step,
    entries_terminal,
    is_path,
    maxscore,
    sheet_le,
    wins_from,
)
from conftest import alternating_strategy, m, random_muller_game, word
from test_acceptance import corpus_config


def stubborn_strategy():
    """Always moves from the middle vertex to 0."""
    states = ("s",)
    update = {("s", v): "s" for v in range(3)}
    init = {v: "s" for v in range(3)}
    return FiniteStateStrategy.from_tables(
        0, 3, states, init.items(), update.items(), {(1, "s"): (0,)}.items()
    )


@pytest.fixture
def ex4_pipeline(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller, tracked_player=1)
    sol = solve_safety(red.game)
    return arena, muller, red, sol


def test_solve_muller_example4(example4):
    arena, muller = example4
    sol = solve_muller(arena, muller)
    assert sol.w0 == m(0, 1, 2)
    assert sol.w1 == 0
    assert sol.strategy_p0.owner_player == 0
    assert sol.strategy_p1.owner_player == 1


def test_solve_muller_all_loops_favour_player0(example4):
    arena, _ = example4
    muller = MullerCondition(frozenset(enumerate_loops(arena)))
    sol = solve_muller(arena, muller)
    assert sol.w0 == arena.full_mask
    # nothing to track: at most one maximal class per last vertex
    assert len(sol.strategy_p0.states) <= arena.n + 1


def test_solve_muller_empty_family(example4):
    arena, _ = example4
    sol = solve_muller(arena, MullerCondition(frozenset()))
    assert sol.w1 == arena.full_mask


def test_antichain_memory_is_an_antichain(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    strat = build_antichain_strategy(red, sol)
    assert strat.states[-1] is BOTTOM
    chain = strat.states[:-1]
    assert chain
    for a in chain:
        for b in chain:
            if a != b:
                assert not sheet_le(red.family, class_sheet(red, a), class_sheet(red, b))


def test_antichain_strategy_bounds_scores(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    strat = build_antichain_strategy(red, sol)
    ok, witness = verify_bounded_scores(arena, muller, strat, m(0, 1, 2), 2)
    assert ok and witness is None
    # the bound is tight: Player 1 forces a score of 2
    ok, witness = verify_bounded_scores(arena, muller, strat, m(0, 1, 2), 1)
    assert not ok
    assert is_path(arena, witness)


def test_bottom_is_unreachable(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    for strat in (
        build_antichain_strategy(red, sol),
        build_permissive_strategy(red, sol),
    ):
        product = consistent_product(arena, strat, m(0, 1, 2))
        assert all(node[1] is not BOTTOM for node in product.nodes)


def test_alternating_strategy_score_bounds(example4):
    arena, muller = example4
    strat = alternating_strategy()
    ok, _ = verify_bounded_scores(arena, muller, strat, m(0, 1, 2), 2)
    assert ok
    ok, witness = verify_bounded_scores(arena, muller, strat, m(0, 1, 2), 1)
    assert not ok
    assert maxscore(f1_loops(arena, muller), witness) == 2


def test_stubborn_strategy_unbounded(example4):
    arena, muller = example4
    strat = stubborn_strategy()
    for bound, expected in ((2, word("100101")), (3, word("10010101"))):
        ok, witness = verify_bounded_scores(arena, muller, strat, m(1), bound)
        assert not ok
        assert is_path(arena, witness)
        assert maxscore(f1_loops(arena, muller), witness) == bound + 1
        # the witness pumps the {0, 1} loop; the first one in breadth-first order
        assert set(witness) <= {0, 1}
        assert witness == expected


def test_verify_rejects_bad_arguments(example4):
    arena, muller = example4
    with pytest.raises(ValueError):
        verify_bounded_scores(arena, muller, alternating_strategy(), m(1), 0)
    with pytest.raises(ValueError):
        verify_bounded_scores(arena, muller, alternating_strategy(), 1 << 7, 2)


def test_permissive_moves_frozen_values(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    assert perm.moves(1, red.embed[1]) == (0, 2)
    assert perm.moves(1, class_of(red, word("1001"))) == (2,)
    assert perm.moves(1, BOTTOM) in ((0,), (2,))


def test_permissive_requires_player1_tracking(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller, tracked_player=0)
    sol = solve_safety(red.game)
    with pytest.raises(ValueError):
        build_permissive_strategy(red, sol)


def test_permissive_characterization(ex4_pipeline):
    # a play prefix from the winning region is consistent with the
    # permissive strategy iff all its prefix classes stay in the quotient's
    # winning region
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)

    def consistent(path):
        mem = perm.initial(path[0])
        for prev, nxt in zip(path, path[1:]):
            if arena.owner[prev] == 0 and nxt not in perm.moves(prev, mem):
                return False
            mem = perm.step(mem, nxt)
        return True

    def all_classes_winning(path):
        return all(
            sol.w0 & bit(class_of(red, path[: i + 1])) for i in range(len(path))
        )

    def walk(path):
        if len(path) == 7:
            return
        for u in arena.succ[path[-1]]:
            nxt = path + (u,)
            try:
                good = all_classes_winning(nxt)
            except ValueError:  # crossed the score threshold
                good = False
            assert consistent(nxt) == good
            walk(nxt)

    for v in range(3):
        walk((v,))


def test_subsumption_reflexive(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    assert check_subsumption_bounded(arena, muller, perm, perm, 1, 20)


def test_subsumption_alternating_in_permissive(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    alt = alternating_strategy()
    for v in range(3):
        assert check_subsumption_bounded(arena, muller, alt, perm, v, 20)


def test_subsumption_rejects_unbounded_candidate(ex4_pipeline):
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    with pytest.raises(ValueError):
        check_subsumption_bounded(arena, muller, stubborn_strategy(), perm, 1, 20)


def test_verify_and_subsumption_reject_bad_strategies(example4):
    arena, muller = example4
    short = FiniteStateStrategy.from_tables(0, 2, ("s",), [(0, "s"), (1, "s")], (), ())
    with pytest.raises(ValueError, match="^strategy is for 2 vertices, the arena has 3$"):
        verify_bounded_scores(arena, muller, short, m(0), 2)
    # vertex 1 has no self-loop
    stray = FiniteStateStrategy.from_tables(
        0, 3, ("s",), [(1, "s")], [(("s", v), "s") for v in range(3)], [((1, "s"), (1,))]
    )
    # the three searches share one move rule, and it refuses a non-edge
    with pytest.raises(ValueError, match="^strategy proposes a non-edge 1 -> 1$"):
        verify_bounded_scores(arena, muller, stray, m(1), 2)
    with pytest.raises(ValueError, match="^strategy proposes a non-edge 1 -> 1$"):
        consistent_product(arena, stray, m(1))
    with pytest.raises(ValueError, match="^strategy proposes a non-edge 1 -> 1$"):
        check_subsumption_bounded(arena, muller, alternating_strategy(), stray, 1, 5)
    player1 = FiniteStateStrategy.from_tables(1, 3, ("s",), (), (), ())
    with pytest.raises(ValueError, match="^strategies must belong to the same player$"):
        check_subsumption_bounded(arena, muller, alternating_strategy(), player1, 1, 5)
    with pytest.raises(ValueError, match="^start vertex -1 is not a vertex of the arena$"):
        check_subsumption_bounded(arena, muller, alternating_strategy(), short, -1, 5)
    # a complete strategy on 2 vertices: unchecked, subsumption answered
    # False and the product was built on the 3-vertex arena
    two = FiniteStateStrategy.from_tables(
        0, 2, ("s",), [(0, "s"), (1, "s")], [(("s", v), "s") for v in range(2)], [((1, "s"), (0,))]
    )
    with pytest.raises(ValueError, match="^strategy is for 2 vertices, the arena has 3$"):
        check_subsumption_bounded(arena, muller, alternating_strategy(), two, 1, 5)
    with pytest.raises(ValueError, match="^strategy is for 2 vertices, the arena has 3$"):
        consistent_product(arena, two, m(0))


def test_verify_refuses_a_non_edge_before_stepping():
    # vertex 0's move takes the self-loop, which crosses bound 1 at once,
    # and then the non-edge 0 -> 1: the move is refused before either step
    arena = Arena.build([0, 0], [(0, 0), (1, 1)])
    muller = MullerCondition(frozenset())
    strat = FiniteStateStrategy.from_tables(
        0, 2, ("s",), [(0, "s")], [(("s", 0), "s")], [((0, "s"), (0, 1))]
    )
    for verify in (verify_bounded_scores, reference_verify):
        with pytest.raises(ValueError, match="^strategy proposes a non-edge 0 -> 1$"):
            verify(arena, muller, strat, m(0), 1)


@pytest.mark.parametrize(
    "init, update, message",
    [
        # vertex 5 would land in state b's row at vertex 2
        ([(0, "a")], [(("a", 5), "b")], "(('a', 5), 'b')"),
        # vertex -1 would set vertex 2's initial state
        ([(-1, "a")], [], "(-1, 'a')"),
    ],
)
def test_from_tables_refuses_vertices_outside_the_arena(init, update, message):
    with pytest.raises(ValueError) as err:
        FiniteStateStrategy.from_tables(0, 3, ("a", "b"), init, update, ())
    assert str(err.value) == f"strategy entry {message} names a vertex outside 0..2"


def from_entries(strat, init, update, moves):
    """``from_tables`` fed entries in ``table_entries``' shapes, on
    ``strat``'s state numbers, labelled through its ``states``."""
    states = strat.states
    return FiniteStateStrategy.from_tables(
        strat.owner_player,
        len(strat.init),
        states,
        ((v, states[i]) for v, i in init),
        (((states[i], v), states[j]) for (i, v), j in update),
        (((v, states[i]), move) for (v, i), move in moves),
    )


def relabelled(strat):
    """``from_entries`` fed ``strat``'s own ``table_entries``."""
    return from_entries(strat, *strat.table_entries())


def test_table_entries_round_trip():
    # the builders' strategies for both players, the permissive one, the
    # monitor strategies of every kind and parsed files
    strategies = []
    for seed in range(12):
        arena, muller = random_game(corpus_config(seed))
        sol = solve_muller(arena, muller)
        red = build_safety_game(arena, muller, tracked_player=1)
        permissive = build_permissive_strategy(red, solve_safety(red.game))
        # a file that leaves out every third entry
        lines = serialize_strategy(permissive, arena).splitlines()
        kept = [ln for k, ln in enumerate(lines) if k % 3 or ln.startswith(("player", "state"))]
        parsed = parse_strategy("\n".join(kept), arena)
        strategies += [sol.strategy_p0, sol.strategy_p1, permissive, parsed]
    for kind in ("buchi", "cobuchi", "parity", "rr", "muller"):
        for seed in range(1000, 1006):
            arena, condition = random_game(GeneratorConfig(n=2 + seed % 4, seed=seed, kind=kind))
            strategies.append(solve_via_safety(arena, condition, monitor_for(arena, condition))[1])
    for strat in strategies:
        init, update, moves = map(list, strat.table_entries())
        # the walk is in file order and finds every entry the tables define
        assert [v for v, _ in init] == sorted({v for v, i in enumerate(strat.init) if i >= 0})
        assert [key for key, _ in update] == sorted(key for key, _ in update)
        assert len(update) == sum(j >= 0 for j in strat.update)
        assert [key for key, _ in moves] == sorted(key for key, _ in moves)
        columns = [col for col in strat.next_move if col is not None]
        assert len(moves) == sum(move is not None for col in columns for move in col)
        assert all(i == strat.init_of(v) for v, i in init)
        assert all(j == strat.step_of(i, v) for (i, v), j in update)
        assert all(move == strat.moves_of(v, i) for (v, i), move in moves)
        # the same strategy back
        assert relabelled(strat) == strat


@pytest.mark.parametrize("seed", [4, 6, 7, 9])
def test_equal_strategies_are_those_that_behave_alike(seed):
    # a strategy's entries in two shuffled orders give equal strategies,
    # whichever of a vertex's moves each order meets first (on these games
    # some vertex has several); one other move, or one other update, gives
    # an unequal one
    arena, muller = random_game(corpus_config(seed))
    red = build_safety_game(arena, muller, tracked_player=1)
    sol = solve_safety(red.game)
    rng = random.Random(seed)
    for strat in (build_antichain_strategy(red, sol), build_permissive_strategy(red, sol)):
        init, update, moves = map(list, strat.table_entries())
        rebuilt = []
        for _ in range(2):
            for entries in (init, update, moves):
                rng.shuffle(entries)
            rebuilt.append(from_entries(strat, init, update, moves))
        assert rebuilt[0] == rebuilt[1] == strat
        (key, move), ((i, v), j) = moves[0], update[0]
        other_move = [(key, move[1:] or (move[0] + 1,))] + moves[1:]
        assert from_entries(strat, init, update, other_move) != strat
        other_update = [((i, v), (j + 1) % len(strat.states))] + update[1:]
        assert from_entries(strat, init, other_update, moves) != strat


def test_readers_name_only_vertices_of_the_arena():
    # a parsed strategy names its vertices; a number outside 0..n-1 names
    # none of them, so the message keeps the number
    arena = Arena.build([0, 1], [(0, 1), (1, 0)], ("a", "b"))
    strat = parse_strategy("player 0\nstate s\nupdate s a s\nmove a s { b }\n", arena)
    for v in (-1, 2, 7):
        no_update = f"^strategy update undefined for state 's', vertex {v}$"
        no_move = f"^strategy has no move for vertex {v} in state 's'$"
        with pytest.raises(ValueError, match=f"^strategy has no initial state for vertex {v}$"):
            strat.init_of(v)
        with pytest.raises(ValueError, match=no_update):
            strat.step("s", v)
        with pytest.raises(ValueError, match=no_move):
            strat.moves(v, "s")
        with pytest.raises(ValueError, match=no_move):
            strat.moves_of(v, 0)
    # a vertex of the arena is named
    with pytest.raises(ValueError, match="^strategy has no initial state for vertex b$"):
        strat.init_of(1)
    with pytest.raises(ValueError, match="^strategy update undefined for state 's', vertex b$"):
        strat.step("s", 1)


def test_numbered_readers_name_only_states_of_the_strategy():
    # states go0 and go2 are numbers 0 and 1: -1 would read go2's row and
    # 2 would run past the tables
    strat = alternating_strategy()
    assert (strat.moves_of(1, 1), strat.step_of(1, 0)) == ((2,), 1)
    for i in (-1, len(strat.states), 5):
        with pytest.raises(ValueError, match=f"^strategy has no state number {i}$"):
            strat.moves_of(1, i)
        with pytest.raises(ValueError, match=f"^strategy has no state number {i}$"):
            strat.step_of(i, 0)


@pytest.mark.parametrize("start", [1 << 3, 1 << 5, -1])
def test_consistent_product_refuses_start_outside_the_arena(example4, start):
    arena, _ = example4
    with pytest.raises(ValueError, match="^start vertices outside the arena$"):
        consistent_product(arena, alternating_strategy(), start)


def test_subsumption_fails_at_its_depth(ex4_pipeline):
    # vertex 0 is Player 1's, so the first prefix consistent with the
    # permissive strategy and not with the antichain one is 0 1 0: after
    # 0 1 the permissive strategy allows both moves and the antichain
    # strategy only the move to 2
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    anti = build_antichain_strategy(red, sol)
    verdicts = [check_subsumption_bounded(arena, muller, perm, anti, 0, d) for d in range(6)]
    assert verdicts == [True, True, True, False, False, False]


def test_subsumption_is_capped(ex4_pipeline, monkeypatch):
    # the precondition check runs a search of its own; with it stubbed,
    # only the subsumption search meets the patched cap, which it fills
    # with its 9 states exactly
    arena, muller, red, sol = ex4_pipeline
    perm = build_permissive_strategy(red, sol)
    monkeypatch.setattr(strategy, "verify_bounded_scores", lambda *args: (True, None))
    monkeypatch.setattr(strategy, "Search", functools.partial(Search, max_states=9))
    assert check_subsumption_bounded(arena, muller, perm, perm, 1, 20)
    monkeypatch.setattr(strategy, "Search", functools.partial(Search, max_states=8))
    with pytest.raises(SizeLimitError, match="cap of 8 states"):
        check_subsumption_bounded(arena, muller, perm, perm, 1, 20)


def test_memory_over_approximates_play_class(ex4_pipeline):
    # consistent plays keep their true class below the memory state
    arena, muller, red, sol = ex4_pipeline
    strat = build_antichain_strategy(red, sol)
    rng = random.Random(7)
    for v in range(3):
        path = (v,)
        mem = strat.initial(v)
        for _ in range(40):
            here = path[-1]
            if arena.owner[here] == 0:
                (nxt,) = strat.moves(here, mem)
            else:
                nxt = rng.choice(arena.succ[here])
            path = path + (nxt,)
            mem = strat.step(mem, nxt)
            assert mem is not BOTTOM
            true_class = class_sheet(red, class_of(red, path))
            assert sheet_le(red.family, true_class, class_sheet(red, mem))


def test_player1_strategy_verifies_when_player1_wins(example4):
    arena, _ = example4
    muller = MullerCondition(frozenset())  # every loop favours Player 1
    sol = solve_muller(arena, muller)
    assert sol.w1 == arena.full_mask
    ok, _ = verify_bounded_scores(arena, muller, sol.strategy_p1, sol.w1, 2)
    assert ok


def test_solve_muller_peak_is_one_side_at_a_time():
    # corpus game 163, whose sides have 2,878 and 2,274 classes: each side's
    # reduction and solution are dropped before the other side is built,
    # so solve_muller peaks near the larger side alone, not near both; the
    # cyclic collector is off, so only reference counts free a reduction
    arena, muller = random_game(GeneratorConfig(n=6, density=0.25, seed=163, kind="muller"))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        sides = []
        for tracked in (1, 0):
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            red = build_safety_game(arena, muller, tracked_player=tracked)
            sol = solve_safety(red.game)
            sides.append((red.n_classes, tracemalloc.get_traced_memory()[1] - base))
            del red, sol
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve_muller(arena, muller)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert [n for n, _ in sides] == [2_878, 2_274]
    assert peak <= 1.2 * max(p for _, p in sides)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_random_games_strategies_verified(seed):
    arena, muller = random_muller_game(seed, max_n=4)
    sol = solve_muller(arena, muller)
    assert sol.w0 | sol.w1 == arena.full_mask
    assert sol.w0 & sol.w1 == 0
    if sol.w0:
        ok, _ = verify_bounded_scores(arena, muller, sol.strategy_p0, sol.w0, 2)
        assert ok
        product = consistent_product(arena, sol.strategy_p0, sol.w0)
        assert all(node[1] is not BOTTOM for node in product.nodes)
    if sol.w1:
        ok, _ = verify_bounded_scores(arena, muller, sol.strategy_p1, sol.w1, 2)
        assert ok


def reference_verify(arena, muller, strat, start, bound):
    """``verify_bounded_scores`` on state labels: a plain breadth-first
    search over (vertex, label, score entries) through ``initial``, ``step``
    and ``moves``, with its own queue, parent links and pair table,
    returning the same verdict and witness or raising the same
    ValueError."""
    if strat.owner_player == 1:
        arena, muller = arena.swap_roles(), MullerCondition(frozenset(f1_loops(arena, muller)))
    family = family_of(f1_loops(arena, muller))
    parent = {}
    pairs = {}
    queue = deque()
    for v in iter_bits(start):
        node = (v, strat.initial(v), entries_init(family, v))
        if node not in parent:
            parent[node] = None
            queue.append(node)
    while queue:
        node = queue.popleft()
        v, mem, entries = node
        targets = strat.moves(v, mem) if arena.owner[v] == 0 else arena.succ[v]
        for u in targets:  # the whole move is checked before any step
            if u not in arena.succ[v]:
                raise ValueError(f"strategy proposes a non-edge {v} -> {u}")
        for u in targets:
            nxt = entries_step(family, entries, u, pairs)
            child = (u, strat.step(mem, u), nxt)
            if entries_terminal(nxt, bound + 1):
                prefix = [u]
                while node is not None:
                    prefix.append(node[0])
                    node = parent[node]
                return False, tuple(reversed(prefix))
            if child not in parent:
                parent[child] = node
                queue.append(child)
    return True, None


def outcome(verify, *args):
    try:
        return verify(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("seed", [3, 10, 21, 46, 58, 77, 129, 190])
def test_verifier_matches_the_label_reference(seed):
    # the antichain strategies of both players and the permissive one, at
    # bound 2 (passing from the winning region) and bound 1 (failing, so
    # the witnesses are compared too), at bounds 3, 4, 7 and 8, whose caps
    # take score fields of 3 and 4 bits, and at bound 2 from every vertex
    arena, muller = random_game(corpus_config(seed))
    red1 = build_safety_game(arena, muller, tracked_player=1)
    sol1 = solve_safety(red1.game)
    red0 = build_safety_game(arena, muller, tracked_player=0)
    sol0 = solve_safety(red0.game)
    w0, w1 = sol1.w0 & arena.full_mask, sol0.w0 & arena.full_mask
    cases = [
        (build_antichain_strategy(red1, sol1), w0),
        (build_antichain_strategy(red0, sol0), w1),
        (build_permissive_strategy(red1, sol1), w0),
    ]
    verdicts = []
    for strat, region in cases:
        for start, bound in (
            *((region, bound) for bound in (2, 1, 3, 4, 7, 8)),
            (arena.full_mask, 2),
        ):
            if not start:
                continue
            args = (arena, muller, strat, start, bound)
            got = outcome(verify_bounded_scores, *args)
            assert got == outcome(reference_verify, *args)
            verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_verifier_matches_the_reference_from_the_opponents_region():
    # corpus seeds 0-59: each player's antichain strategy started in the
    # other player's region fails at bounds 1 to 4, 7 and 8 (score fields of
    # 2 to 4 bits), with the reference's verdict and witness: 85 starts, 42
    # of them Player 0's, at six bounds each
    cases = []
    for seed in range(60):
        arena, muller = random_game(corpus_config(seed))
        red1 = build_safety_game(arena, muller, tracked_player=1)
        sol1 = solve_safety(red1.game)
        red0 = build_safety_game(arena, muller, tracked_player=0)
        sol0 = solve_safety(red0.game)
        w0, w1 = sol1.w0 & arena.full_mask, sol0.w0 & arena.full_mask
        f1 = f1_loops(arena, muller)
        sides = (
            (build_antichain_strategy(red1, sol1), w1, f1),
            (build_antichain_strategy(red0, sol0), w0, set(enumerate_loops(arena)) - set(f1)),
        )
        for strat, start, opponents in sides:
            for bound in (1, 2, 3, 4, 7, 8) if start else ():
                args = (arena, muller, strat, start, bound)
                got = outcome(verify_bounded_scores, *args)
                assert got == outcome(reference_verify, *args), (seed, bound)
                ok, witness = got
                # the witness's last step takes an opponent's loop past the bound
                assert not ok and is_path(arena, witness)
                assert maxscore(opponents, witness) == bound + 1
                cases.append((strat.owner_player, bound, len(witness)))
    assert len(cases) == 6 * 85 and sum(player == 0 for player, _, _ in cases) == 6 * 42
    assert {length for _, bound, length in cases if bound <= 3} <= set(range(2, 9))
    assert {length for _, bound, length in cases if bound == 8} <= set(range(9, 19))


def test_cycle_check_agrees_with_the_verifier():
    # corpus seeds 0-30: the kernel-free cycle check accepts both players'
    # antichain strategies and the permissive one from their regions and
    # rejects each start in the opponent's region, as the verifier does at
    # bound 2; and it rejects, as the verifier does, Player 0's antichain
    # strategy with one move its play reaches redirected out of the region
    verdicts = Counter()
    mutants = 0
    for seed in range(31):
        arena, muller = random_game(corpus_config(seed))
        red1 = build_safety_game(arena, muller, tracked_player=1)
        sol1 = solve_safety(red1.game)
        red0 = build_safety_game(arena, muller, tracked_player=0)
        sol0 = solve_safety(red0.game)
        w0, w1 = sol1.w0 & arena.full_mask, sol0.w0 & arena.full_mask
        anti0 = build_antichain_strategy(red1, sol1)
        cases = (
            (anti0, w0, w1),
            (build_antichain_strategy(red0, sol0), w1, w0),
            (build_permissive_strategy(red1, sol1), w0, w1),
        )
        for strat, region, other in cases:
            for start in [region] * bool(region) + [bit(v) for v in iter_bits(other)]:
                ok = wins_from(arena, muller, strat, start)
                assert ok == verify_bounded_scores(arena, muller, strat, start, 2)[0], seed
                verdicts[ok, start == region] += 1
        if not w0:
            continue
        for v, label in consistent_product(arena, anti0, w0).nodes:
            lost = tuple(u for u in arena.succ[v] if not w0 & bit(u))
            if arena.owner[v] == 0 and lost:
                columns = [list(c) if c else c for c in anti0.next_move]
                columns[v][anti0.states.index(label)] = lost[:1]
                mutant = FiniteStateStrategy(0, anti0.states, anti0.init, anti0.update, columns)
                assert not wins_from(arena, muller, mutant, w0)
                assert not verify_bounded_scores(arena, muller, mutant, w0, 2)[0]
                mutants += 1
                break
    assert verdicts == {(True, True): 67, (False, False): 214}
    assert mutants == 7


def test_permissive_strategy_subsumes_every_bounding_strategy():
    # the permissive theorem: on corpus games 0, 5, ..., 195, each random
    # memoryless Player-0 strategy that bounds Player 1's scores by 2 from
    # a vertex is subsumed there by the permissive strategy, searched until
    # the product runs out; and at a kept Player-0 start vertex, taking the
    # strategy's move out of a permissive move set of two or more moves in
    # the start state breaks the subsumption, tried once per start and move
    tally = Counter()
    for seed in range(0, 200, 5):
        arena, muller = random_game(corpus_config(seed))
        red = build_safety_game(arena, muller, tracked_player=1)
        perm = build_permissive_strategy(red, solve_safety(red.game))
        depth = arena.n * len(perm.states) + 2  # more layers than product nodes
        rng = random.Random(seed)
        owned = [v for v in range(arena.n) if arena.owner[v] == 0]
        every = [(("s", v), "s") for v in range(arena.n)]
        cuts = set()
        for _ in range(5):
            moves = [((v, "s"), (rng.choice(arena.succ[v]),)) for v in owned]
            strat = FiniteStateStrategy.from_tables(
                0, arena.n, ("s",), [(v, "s") for v in range(arena.n)], every, moves
            )
            for v in range(arena.n):
                tally["pairs"] += 1
                if not verify_bounded_scores(arena, muller, strat, bit(v), 2)[0]:
                    continue
                tally["kept"] += 1
                assert check_subsumption_bounded(arena, muller, strat, perm, v, depth), (seed, v)
                if arena.owner[v] != 0:
                    continue
                i, (u,) = perm.init_of(v), strat.moves_of(v, 0)
                allowed = perm.moves_of(v, i)
                if len(allowed) < 2 or (v, u) in cuts:
                    continue
                cuts.add((v, u))
                columns = [list(c) if c else c for c in perm.next_move]
                columns[v][i] = tuple(t for t in allowed if t != u)
                cut = FiniteStateStrategy(0, perm.states, perm.init, perm.update, columns)
                assert not check_subsumption_bounded(arena, muller, strat, cut, v, depth)
                tally["mutants"] += 1
    assert tally == {"pairs": 900, "kept": 194, "mutants": 40}


def test_verifier_matches_the_reference_on_partial_files(example4):
    # a strategy file without one of its init, update or move lines: the
    # verifiers give the same verdict and witness, or the same error text
    arena, muller = example4
    red = build_safety_game(arena, muller)
    sol = solve_safety(red.game)
    errors = 0
    for strat in (build_antichain_strategy(red, sol), build_permissive_strategy(red, sol)):
        lines = serialize_strategy(strat, arena).splitlines(keepends=True)
        for i, line in enumerate(lines):
            if line.split()[0] not in ("init", "update", "move"):
                continue
            partial = parse_strategy("".join(lines[:i] + lines[i + 1 :]), arena)
            for bound in (2, 1):
                args = (arena, muller, partial, arena.full_mask, bound)
                got = outcome(verify_bounded_scores, *args)
                assert got == outcome(reference_verify, *args)
                errors += got[0] == "ValueError"
    assert errors


def test_permissive_table_is_compact():
    # corpus game 163: the permissive strategy keeps at most 48 bytes per
    # (state, vertex) cell of its tables, labels and move sets included
    arena, muller = random_game(corpus_config(163))
    red = build_safety_game(arena, muller, tracked_player=1)
    sol = solve_safety(red.game)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        perm = build_permissive_strategy(red, sol)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # 14 bytes a cell with array tables and move columns, 156 with dict tables
    assert kept <= 48 * len(perm.states) * arena.n


def test_certificate_search_is_compact(monkeypatch):
    # corpus game 47: certifying the permissive strategy peaks at 160 bytes
    # or less per certificate state, the search's index and key list and
    # the verifier's parent links included
    arena, muller = random_game(corpus_config(47))
    red = build_safety_game(arena, muller, tracked_player=1)
    sol = solve_safety(red.game)
    perm, start = build_permissive_strategy(red, sol), sol.w0 & arena.full_mask
    del red, sol
    searches = []

    def recorded(*args):
        searches.append(Search(*args))
        return searches[-1]

    monkeypatch.setattr(strategy, "Search", recorded)
    gc.collect()
    tracemalloc.start()
    try:
        verdict = verify_bounded_scores(arena, muller, perm, start, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == (True, None)
    (search,) = searches
    # 125 bytes a state with one packed int a state, 209 with a (state
    # number, key) tuple
    assert peak <= 160 * len(search.keys)
