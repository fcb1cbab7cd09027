import pytest
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
    assert attractor(arena, 0, arena.full_mask) == arena.full_mask
    assert attractor(arena, 0, 0) == 0


def test_attractor_refuses_targets_outside_the_arena():
    # a negative int or a bit past the last vertex names no vertex set
    two = Arena.build([0, 1], [(0, 1), (1, 0)])
    three = Arena.build([0, 1, 1], [(0, 1), (1, 2), (2, 0)])
    for arena, target in ((two, -1), (two, -2), (two, 1 << 5), (two, 1 << 2), (three, -1)):
        with pytest.raises(ValueError, match="target vertices outside the arena"):
            attractor(arena, 0, target)


def test_attractor_chain():
    # a -> b -> c, all Player 1, c loops
    arena = Arena.build([1, 1, 1], [(0, 1), (1, 2), (2, 2)])
    assert attractor(arena, 1, m(2)) == m(0, 1, 2)


def test_attractor_opponent_choice():
    # Player 0 at vertex 0 can escape to 2, so 0 is not attracted to 1
    arena = Arena.build([0, 1, 1], [(0, 1), (0, 2), (1, 1), (2, 2)])
    assert attractor(arena, 1, m(1)) == m(1)
    # but if both successors lead in, it is
    arena2 = Arena.build([0, 1, 1], [(0, 1), (0, 2), (1, 1), (2, 1), (2, 2)])
    assert attractor(arena2, 1, m(1, 2)) == m(0, 1, 2)


def test_solve_safety_all_safe():
    arena = Arena.build([0, 1], [(0, 1), (1, 0)])
    sol = solve_safety(SafetyGame(arena, arena.full_mask))
    assert sol.w0 == arena.full_mask


def test_solve_safety_example4(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    sol = solve_safety(red.game)
    w1 = red.game.arena.full_mask & ~sol.w0
    for v in range(3):
        assert sol.w0 & bit(red.embed[v])
    assert w1 & bit(class_of(red, word("10010")))
    assert bin(sol.w0).count("1") == 15
    # classes from which the opponent forces a third traversal
    for w in ("1010", "1212", "10010"):
        assert w1 & bit(class_of(red, word(w)))


def greatest_fixpoint(game: SafetyGame) -> int:
    """Player 0's region found independently of the solver: keep the safe
    vertices whose owner can stay inside until nothing changes."""
    arena = game.arena
    win = {v for v in range(arena.n) if game.safe & bit(v)}
    while True:
        kept = {
            v
            for v in win
            if (any if arena.owner[v] == 0 else all)(u in win for u in arena.succ[v])
        }
        if kept == win:
            return mask_of(win)
        win = kept


def check_solution(game: SafetyGame):
    arena = game.arena
    sol = solve_safety(game)
    assert sol.w0 & ~game.safe == 0

    # Player 0 strategy choices and every Player 1 move stay inside w0
    for v in iter_bits(sol.w0):
        if arena.owner[v] == 0:
            u = sol.strategy0[v]
            assert arena.has_edge(v, u) and sol.w0 & bit(u)
            assert sol.strategy0[v] == min(t for t in arena.succ[v] if sol.w0 & bit(t))
        else:
            assert all(sol.w0 & bit(t) for t in arena.succ[v])
    # -1 exactly where there is no move: outside the won Player-0 vertices
    assert len(sol.strategy0) == arena.n
    for v in range(arena.n):
        won0 = arena.owner[v] == 0 and sol.w0 & bit(v)
        assert (sol.strategy0[v] == -1) == (not won0)
    # Player 1 wins every other vertex: w0 is the greatest fixpoint
    assert sol.w0 == greatest_fixpoint(game)
    return sol


def test_large_quotient_matches_naive_fixpoint():
    # corpus game 42, Player-0 side: 5,132 classes, so each region spans
    # about 80 machine words
    arena, muller = random_game(GeneratorConfig(n=5, density=0.65, seed=42, kind="muller"))
    game = build_safety_game(arena, muller, tracked_player=0).game
    quotient = game.arena
    assert quotient.n > 5000
    sol = check_solution(game)
    assert 0 < sol.w0.bit_count() < quotient.n
    unsafe = quotient.full_mask & ~game.safe
    assert attractor(quotient, 1, unsafe) == quotient.full_mask & ~sol.w0


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
