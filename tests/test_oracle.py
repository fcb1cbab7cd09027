import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames.arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    SizeLimitError,
    enumerate_loops,
    validate,
)
from scoregames.oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from scoregames.strategy import solve_muller

from conftest import m, random_muller_game


def test_zielonka_example4(example4):
    arena, muller = example4
    assert zielonka(arena, muller) == (m(0, 1, 2), 0)


def test_zielonka_trivial_families(example4):
    arena, _ = example4
    assert zielonka(arena, MullerCondition(frozenset())) == (0, arena.full_mask)
    single = Arena.build([0], [(0, 0)])
    assert zielonka(single, MullerCondition(frozenset({m(0)}))) == (m(0), 0)


def test_zielonka_size_guard():
    n = 13
    arena = Arena.build([0] * n, [(v, v) for v in range(n)])
    with pytest.raises(SizeLimitError):
        zielonka(arena, MullerCondition(frozenset()))


def test_encode_buchi_full(example4):
    arena, _ = example4
    enc = encode_as_muller(arena, BuchiCondition(arena.full_mask))
    assert enc.f0 == frozenset(enumerate_loops(arena))


def test_encode_parity_single_even():
    arena = Arena.build([0], [(0, 0)])
    assert encode_as_muller(arena, ParityCondition((0,))).f0 == frozenset({m(0)})
    assert encode_as_muller(arena, ParityCondition((1,))).f0 == frozenset()


def test_encode_cobuchi_bad_vertex_everywhere():
    # vertex 1 is outside the persistent set and sits on every loop
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    enc = encode_as_muller(arena, CoBuchiCondition(m(0)))
    assert enc.f0 == frozenset()


def test_encode_rejects_rr(example4):
    arena, _ = example4
    with pytest.raises(TypeError):
        encode_as_muller(arena, RequestResponseCondition(((m(0), m(2)),)))


def test_random_game_deterministic():
    cfg = GeneratorConfig(n=5, density=0.5, seed=42)
    assert random_game(cfg) == random_game(cfg)
    other = random_game(GeneratorConfig(n=5, density=0.5, seed=43))
    assert other != random_game(cfg)


def test_random_muller_game_over_the_loop_guard_is_refused_before_drawing(monkeypatch):
    # the guard is checked before the owners and edges are drawn, so the
    # arena is never built
    def build(*args):
        raise AssertionError("the arena was built")

    monkeypatch.setattr(Arena, "build", build)
    message = "^loop enumeration over 15 vertices exceeds the guard of 14$"
    with pytest.raises(SizeLimitError, match=message):
        random_game(GeneratorConfig(n=15, kind="muller"))


def test_random_game_refuses_before_drawing(monkeypatch):
    # an unknown kind, and a game of any kind over the vertex guard, are
    # refused before the generator is seeded, so nothing is drawn
    from scoregames import oracle
    from scoregames.arena import RANDOM_VERTEX_LIMIT

    def seeded(*args):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(oracle.random, "Random", seeded)
    with pytest.raises(ValueError, match="^unknown condition kind 'mueller'$"):
        random_game(GeneratorConfig(n=3, kind="mueller"))
    huge = 10**30
    for kind in oracle.GAME_KINDS:
        with pytest.raises(SizeLimitError, match=f"^{huge} random vertices exceed the guard of"):
            random_game(GeneratorConfig(n=huge, kind=kind))
    # at the guard itself the generator is seeded
    with pytest.raises(AssertionError, match="seeded"):
        random_game(GeneratorConfig(n=RANDOM_VERTEX_LIMIT, kind="buchi"))


def test_random_game_density_extremes():
    arena, _ = random_game(GeneratorConfig(n=4, density=1.0, seed=1))
    assert all(arena.succ[v] == (0, 1, 2, 3) for v in range(4))
    arena, _ = random_game(GeneratorConfig(n=4, density=0.0, seed=1))
    assert all(arena.succ[v] == (v,) for v in range(4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["muller", "buchi", "cobuchi", "parity", "rr"]))
def test_random_games_are_valid(seed, kind):
    cfg = GeneratorConfig(n=2 + seed % 5, density=(seed % 7) / 6, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    assert validate(arena, condition) == []


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_zielonka_partitions(seed):
    arena, muller = random_muller_game(seed, max_n=5)
    w0, w1 = zielonka(arena, muller)
    assert w0 & w1 == 0
    assert w0 | w1 == arena.full_mask


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_zielonka_agrees_with_score_solver(seed):
    arena, muller = random_muller_game(seed, max_n=5)
    sol = solve_muller(arena, muller)
    assert zielonka(arena, muller) == (sol.w0, sol.w1)
