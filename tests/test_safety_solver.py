from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames.arena import Arena, bit, iter_bits, mask_of
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.reduction import SafetyGame, build_safety_game
from scoregames.safety_solver import attractor, solve_safety

from reference import class_of
from conftest import m, random_muller_game, word


def test_attractor_trivial_targets():
    arena = Arena.build([0, 1], [(0, 1), (1, 0)])
    assert attractor(arena, 0, arena.full_mask)[0] == arena.full_mask
    assert attractor(arena, 0, 0) == (0, array("i", [-1, -1]))


def test_attractor_chain():
    # a -> b -> c, all Player 1, c loops
    arena = Arena.build([1, 1, 1], [(0, 1), (1, 2), (2, 2)])
    attr, strat = attractor(arena, 1, m(2))
    assert attr == m(0, 1, 2)
    assert strat == array("i", [1, 2, -1])


def test_attractor_opponent_choice():
    # Player 0 at vertex 0 can escape to 2, so 0 is not attracted to 1
    arena = Arena.build([0, 1, 1], [(0, 1), (0, 2), (1, 1), (2, 2)])
    attr, _ = attractor(arena, 1, m(1))
    assert attr == m(1)
    # but if both successors lead in, it is
    arena2 = Arena.build([0, 1, 1], [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)])
    attr2, _ = attractor(arena2, 1, m(1, 2))
    assert attr2 == m(0, 1, 2)


def test_solve_safety_all_safe():
    arena = Arena.build([0, 1], [(0, 1), (1, 0)])
    sol = solve_safety(SafetyGame(arena, arena.full_mask))
    assert sol.w0 == arena.full_mask
    assert sol.w1 == 0


def test_solve_safety_example4(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    sol = solve_safety(red.game)
    for v in range(3):
        assert sol.w0 & bit(red.embed[v])
    assert sol.w1 & bit(class_of(red, word("10010")))
    assert bin(sol.w0).count("1") == 15
    # classes from which the opponent forces a third traversal
    for w in ("1010", "1212", "10010"):
        assert sol.w1 & bit(class_of(red, word(w)))


def check_solution(game: SafetyGame):
    arena = game.arena
    sol = solve_safety(game)
    assert sol.w0 & sol.w1 == 0
    assert sol.w0 | sol.w1 == arena.full_mask
    assert sol.w0 & ~game.safe == 0

    # Player 0 strategy choices and every Player 1 move stay inside w0
    for v in iter_bits(sol.w0):
        if arena.owner[v] == 0:
            u = sol.strategy0[v]
            assert arena.has_edge(v, u) and sol.w0 & bit(u)
            assert sol.strategy0[v] == min(t for t in arena.succ[v] if sol.w0 & bit(t))
        else:
            assert all(sol.w0 & bit(t) for t in arena.succ[v])
    # Player 1's region is the attractor of the unsafe vertices, and its
    # strategy is ``attractor``'s. -1 exactly where there is no move:
    # outside the won Player-0 vertices, and outside the attracted Player-1
    # vertices that are not unsafe
    unsafe = arena.full_mask & ~game.safe
    attracted, strategy1 = attractor(arena, 1, unsafe)
    assert attracted == sol.w1
    assert len(sol.strategy0) == len(strategy1) == arena.n
    for v in range(arena.n):
        won0 = arena.owner[v] == 0 and sol.w0 & bit(v)
        attracted1 = arena.owner[v] == 1 and sol.w1 & ~unsafe & bit(v)
        assert (sol.strategy0[v] == -1) == (not won0)
        assert (strategy1[v] == -1) == (not attracted1)

    # under strategy1, Player 1 reaches the unsafe set within |V| steps from
    # every w1 vertex, whatever Player 0 does
    frontier = unsafe
    reach = unsafe
    for _ in range(arena.n):
        add = 0
        for v in iter_bits(sol.w1 & ~reach):
            if arena.owner[v] == 1:
                if reach & bit(strategy1[v]):
                    add |= bit(v)
            else:
                if all(reach & bit(t) for t in arena.succ[v]):
                    add |= bit(v)
        if not add:
            break
        reach |= add
    assert reach & sol.w1 == sol.w1
    return sol


def test_large_quotient_matches_naive_fixpoint():
    # corpus game 42, Player-0 side: 5,132 classes, so each region spans
    # about 80 machine words
    arena, muller = random_game(GeneratorConfig(n=5, density=0.65, seed=42, kind="muller"))
    game = build_safety_game(arena, muller, tracked_player=0).game
    quotient = game.arena
    assert quotient.n > 5000
    # greatest fixpoint: keep the safe classes whose owner can stay inside
    win = {v for v in range(quotient.n) if game.safe & bit(v)}
    while True:
        kept = {
            v
            for v in win
            if (any if quotient.owner[v] == 0 else all)(u in win for u in quotient.succ[v])
        }
        if kept == win:
            break
        win = kept
    sol = check_solution(game)
    assert sol.w0 == mask_of(win)
    assert 0 < len(win) < quotient.n
    unsafe = quotient.full_mask & ~game.safe
    assert attractor(quotient, 1, unsafe)[0] == sol.w1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), safe_bits=st.integers(0, 2**6 - 1))
def test_random_safety_games(seed, safe_bits):
    arena, _ = random_muller_game(seed)
    safe = safe_bits & arena.full_mask
    check_solution(SafetyGame(arena, safe))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), safe_bits=st.integers(0, 2**6 - 1), extra=st.integers(0, 2**6 - 1))
def test_enlarging_safe_grows_w0(seed, safe_bits, extra):
    arena, _ = random_muller_game(seed)
    safe = safe_bits & arena.full_mask
    bigger = safe | (extra & arena.full_mask)
    small = solve_safety(SafetyGame(arena, safe))
    large = solve_safety(SafetyGame(arena, bigger))
    assert small.w0 & ~large.w0 == 0
