import random
import re

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
    Successors,
    enumerate_loops,
    f1_loops,
    is_loop,
    mask_of,
    validate,
)

from reference import Lasso, infi, winner
from conftest import m, random_lasso, random_muller_game, word


def test_validate_example4_clean(example4):
    arena, muller = example4
    assert validate(arena, muller) == []


def test_validate_terminal_vertex():
    arena = Arena.build([0, 1], [(0, 1)])
    problems = validate(arena, BuchiCondition(m(0)))
    assert any("no outgoing edge" in p for p in problems)


def test_validate_non_loop_member(example4):
    arena, _ = example4
    bad = MullerCondition(frozenset({m(0, 2)}))
    problems = validate(arena, bad)
    assert any("not a loop" in p for p in problems)


def test_validate_empty_member(example4):
    arena, _ = example4
    assert any("empty" in p for p in validate(arena, MullerCondition(frozenset({0}))))


def test_validate_condition_messages(example4):
    # each malformed condition gets its own message, and a well-formed one none
    arena, _ = example4
    for cls in (BuchiCondition, CoBuchiCondition):
        assert validate(arena, cls(m(0, 2))) == []
        assert validate(arena, cls(m(0, 3))) == ["condition: unknown vertices in mask 0x9"]
    assert validate(arena, ParityCondition((0, 1))) == [
        "priority map must cover exactly the vertex set"
    ]
    assert validate(arena, ParityCondition((0, 1, 2, 3))) == [
        "priority map must cover exactly the vertex set"
    ]
    assert validate(arena, ParityCondition((0, -1, 2))) == ["vertex 1: negative priority"]
    pairs = ((m(0), m(1)), (m(1), m(3)), (m(4), m(2)))
    assert validate(arena, RequestResponseCondition(pairs)) == [
        "pair 1: unknown vertices",
        "pair 2: unknown vertices",
    ]
    owners = Arena(arena.names, (1, 2, -1), arena.succ)
    assert validate(owners, ParityCondition((0, 1, 2))) == [
        "vertex 1: owner must be 0 or 1",
        "vertex 2: owner must be 0 or 1",
    ]
    assert validate(arena, object()) == ["unsupported condition object"]


def test_occ():
    # the vertices occurring in a word, as a bitmask
    assert mask_of(word("10012100")) == m(0, 1, 2)
    assert mask_of(word("0")) == m(0)
    assert mask_of(word("1212")) == m(1, 2)


def test_infi():
    assert infi(Lasso(word("1"), word("01"))) == m(0, 1)
    assert infi(Lasso((), word("0"))) == m(0)
    assert infi(Lasso(word("120"), word("0"))) == m(0)


def test_winner_muller(example4):
    arena, muller = example4
    assert winner(arena, muller, Lasso(word("1"), word("01"))) == 1
    assert winner(arena, muller, Lasso((), word("0"))) == 0


def test_winner_parity_single_even():
    arena = Arena.build([0], [(0, 0)])
    assert winner(arena, ParityCondition((0,)), Lasso((), (0,))) == 0
    assert winner(arena, ParityCondition((1,)), Lasso((), (0,))) == 1


def test_winner_rejects_non_path(example4):
    arena, muller = example4
    with pytest.raises(ValueError):
        winner(arena, muller, Lasso((0,), (2,)))


@pytest.mark.parametrize(
    "lasso, problem",
    [
        (Lasso(word("1"), ()), "empty cycle"),
        (Lasso((), (0, 5)), "unknown vertex in lasso"),
        (Lasso(word("02"), word("2")), "stem.cycle is not a path"),
        (Lasso((), word("0012")), "cycle does not close"),
    ],
)
def test_winner_names_the_lasso_problem(example4, lasso, problem):
    arena, muller = example4
    with pytest.raises(ValueError, match=f"^invalid lasso: {re.escape(problem)}$"):
        winner(arena, muller, lasso)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="^names and owner must have the same length$"):
        Arena.build([0, 1], [(0, 1), (1, 0)], ["a"])
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) references an unknown vertex$"):
        Arena.build([0, 1], [(0, 1), (0, 2)])


def test_winner_buchi_cobuchi():
    arena = Arena.build([0, 0], [(0, 1), (1, 0), (1, 1)])
    assert winner(arena, BuchiCondition(m(0)), Lasso((), (0, 1))) == 0
    assert winner(arena, BuchiCondition(m(0)), Lasso((0,), (1,))) == 1
    assert winner(arena, CoBuchiCondition(m(1)), Lasso((0,), (1,))) == 0
    assert winner(arena, CoBuchiCondition(m(1)), Lasso((), (0, 1))) == 1


def test_winner_request_response():
    # 0 requests, 2 responds, 1 is neutral
    arena = Arena.build(
        [0, 0, 0], [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (0, 2), (2, 0)]
    )
    rr = RequestResponseCondition(((m(0), m(2)),))
    # request answered inside the cycle
    assert winner(arena, rr, Lasso((), word("012"))) == 0
    # request recurs, response never comes
    assert winner(arena, rr, Lasso((), word("01"))) == 1
    # request in the stem, cycle never answers
    assert winner(arena, rr, Lasso(word("0"), word("1"))) == 1
    # request in the stem answered in the stem
    assert winner(arena, rr, Lasso(word("02"), word("1"))) == 0
    # no requests at all
    assert winner(arena, rr, Lasso((), word("1"))) == 0


def test_is_loop(example4):
    arena, _ = example4
    assert is_loop(arena, m(0, 1, 2))
    assert not is_loop(arena, m(0, 2))
    assert is_loop(arena, m(0))
    assert not is_loop(arena, m(1))  # no self-loop on the middle vertex
    assert not is_loop(arena, 0)


def test_enumerate_loops(example4):
    arena, _ = example4
    assert set(enumerate_loops(arena)) == {m(0), m(2), m(0, 1), m(1, 2), m(0, 1, 2)}

    single = Arena.build([0], [(0, 0)])
    assert enumerate_loops(single) == (m(0),)

    two = Arena.build([0, 1], [(0, 1), (1, 0)])
    assert enumerate_loops(two) == (m(0, 1),)


def test_enumerate_loops_guard():
    n = 15
    arena = Arena.build([0] * n, [(v, v) for v in range(n)])
    with pytest.raises(SizeLimitError):
        enumerate_loops(arena)


def test_f1_loops(example4):
    arena, muller = example4
    assert set(f1_loops(arena, muller)) == {m(0, 1), m(1, 2)}
    all_loops = MullerCondition(frozenset(enumerate_loops(arena)))
    assert f1_loops(arena, all_loops) == ()
    nothing = MullerCondition(frozenset())
    assert set(f1_loops(arena, nothing)) == set(enumerate_loops(arena))


def test_swap_roles(example4):
    arena, muller = example4
    swapped = arena.swap_roles()
    assert swapped.owner == (0, 1, 0)
    assert swapped.succ == arena.succ
    # Player 1's family on the swapped game: the loops Player 0 loses
    assert frozenset(f1_loops(arena, muller)) == frozenset({m(0, 1), m(1, 2)})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_infinity_set_is_loop(seed):
    arena, _ = random_muller_game(seed)
    rng = random.Random(seed)
    lasso = random_lasso(arena, rng)
    assert is_loop(arena, infi(lasso))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["muller", "buchi", "cobuchi", "parity", "rr"]))
def test_winner_rotation_and_pumping_invariance(seed, kind):
    from scoregames.oracle import GeneratorConfig, random_game

    n = 2 + seed % 4
    arena, condition = random_game(GeneratorConfig(n=n, density=0.6, seed=seed, kind=kind))
    rng = random.Random(seed + 1)
    lasso = random_lasso(arena, rng)
    w = winner(arena, condition, lasso)
    assert w == winner(arena, condition, Lasso(lasso.stem + lasso.cycle, lasso.cycle))
    assert w == winner(arena, condition, Lasso(lasso.stem, lasso.cycle + lasso.cycle))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_muller_winner_depends_only_on_infinity_set(seed):
    arena, muller = random_muller_game(seed)
    rng = random.Random(seed ^ 0xBEEF)
    a = random_lasso(arena, rng)
    b = random_lasso(arena, rng)
    if infi(a) == infi(b):
        assert winner(arena, muller, a) == winner(arena, muller, b)


def check_successor_table(arena: Arena, rows: list) -> None:
    """``arena.succ`` against ``rows``, its rows as plain tuples, and
    ``edges`` and ``predecessors``, a ``Successors`` of the sources, against
    a naive recomputation from them."""
    n = arena.n
    assert len(arena.succ) == n
    assert [arena.succ[v] for v in range(n)] == rows
    assert list(arena.succ) == rows and arena.succ == tuple(rows)
    assert list(arena.edges()) == [(u, v) for u in range(n) for v in rows[u]]
    naive = [[] for _ in range(n)]
    for u in range(n):
        for v in rows[u]:
            naive[v].append(u)
    pred = arena.predecessors()
    assert isinstance(pred, Successors) and pred == tuple(map(tuple, naive))
    assert len(pred.start) == n + 1 and pred.start[0] == 0 and pred.start[n] == len(pred.flat)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 7), data=st.data())
def test_successor_table_of_a_built_arena(n, data):
    # repeated edges in any order, and vertices without successors
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pairs, max_size=3 * n * n))
    arena = Arena.build([v % 2 for v in range(n)], edges)
    rows = [tuple(sorted({w for u, w in edges if u == v})) for v in range(n)]
    check_successor_table(arena, rows)
    assert arena.succ[-1] == rows[-1]
    with pytest.raises(IndexError):
        arena.succ[n]
    with pytest.raises(IndexError):
        arena.succ[-n - 1]
    # a slice is a tuple of rows, as a tuple of the rows would slice
    assert arena.succ[0:2] == tuple(arena.succ)[0:2]
    assert arena.succ[::-1] == tuple(arena.succ)[::-1]
    assert arena.succ[-2:] == tuple(rows)[-2:]
    # the table made from the rows is the arena's
    assert Arena(arena.names, arena.owner, Successors.from_rows(rows)) == arena


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5_000), tracked=st.sampled_from([0, 1]))
def test_successor_tables_of_quotients(seed, tracked):
    from scoregames.reduction import build_safety_game

    arena, muller = random_muller_game(seed, max_n=4)
    quotient = build_safety_game(arena, muller, tracked_player=tracked).game.arena
    flat, start = quotient.succ.flat, quotient.succ.start
    rows = [tuple(flat[start[c] : start[c + 1]]) for c in range(quotient.n)]
    assert all(list(row) == sorted(set(row)) for row in rows)
    check_successor_table(quotient, rows)


def test_successor_table_of_a_quotient_with_a_sink():
    from scoregames.reduction import build_safety_game

    arena, muller = random_muller_game(5, max_n=4)
    for tracked in (0, 1):
        red = build_safety_game(arena, muller, tracked_player=tracked)
        quotient = red.game.arena
        assert red.sink is not None and quotient.succ[red.sink] == (red.sink,)
        check_successor_table(quotient, [quotient.succ[c] for c in range(quotient.n)])
        # a class whose step crosses the threshold lists the sink once
        assert any(red.sink in quotient.succ[c] for c in range(quotient.n) if c != red.sink)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    kind=st.sampled_from(["buchi", "cobuchi", "parity", "rr", "muller"]),
)
def test_successor_tables_of_monitor_products(seed, kind):
    from scoregames.oracle import GeneratorConfig, random_game
    from scoregames.safety_framework import monitor_for, product_game

    arena, condition = random_game(GeneratorConfig(n=2 + seed % 3, seed=seed, kind=kind))
    prod = product_game(arena, monitor_for(arena, condition), max_states=5_000)
    table = prod.game.arena
    check_successor_table(table, [table.succ[i] for i in range(table.n)])
    # position i's row lists one position per arena successor of its vertex
    for i, (v, _) in enumerate(prod.states):
        assert sorted(prod.states[t][0] for t in table.succ[i]) == list(arena.succ[v])


def test_arenas_hash_as_they_compare(example4):
    # a built arena, a quotient and a monitor product each hash as an equal
    # arena does, fit in a set, and keep their tables' tuple hashes
    import pickle

    from scoregames.reduction import build_safety_game
    from scoregames.safety_framework import monitor_for, product_game

    arena, muller = example4
    quotient = build_safety_game(arena, muller).game.arena
    product = product_game(arena, monitor_for(arena, muller)).game.arena
    for a, again in (
        (arena, Arena.build(arena.owner, arena.edges())),
        (quotient, build_safety_game(arena, muller).game.arena),
        (product, product_game(arena, monitor_for(arena, muller)).game.arena),
    ):
        plain = Arena(tuple(a.names), a.owner, Successors.from_rows(a.succ))
        assert a == again == plain and hash(a) == hash(again) == hash(plain)
        assert {a, again, plain} == {a}
        assert hash(a.succ) == hash(tuple(a.succ)) and hash(a.names) == hash(tuple(a.names))
    assert quotient != product and len({arena, quotient, product}) == 3
    # a table pickles as its two arrays
    assert pickle.loads(pickle.dumps(arena)) == arena


def test_views_index_as_tuples_do():
    from scoregames.arena import View

    view, items = View(5, lambda i: i * i), (0, 1, 4, 9, 16)
    assert len(view) == 5 and tuple(view) == items and list(reversed(view)) == list(items[::-1])
    assert [view[i] for i in range(-5, 5)] == [items[i] for i in range(-5, 5)]
    assert view[1:4] == items[1:4] and view[::-2] == items[::-2]
    for i in (5, -6):
        with pytest.raises(IndexError):
            view[i]
    assert view == items and view == View(5, items.__getitem__) and view != items[:4]
    assert view != list(items) and 9 in view and view.index(16) == 4
    assert repr(view) == "View((0, 1, 4, 9, 16))"
