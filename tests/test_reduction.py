import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames.arena import Arena, MullerCondition, SizeLimitError, bit, mask_of
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.reduction import Search, build_safety_game
from scoregames.safety_solver import solve_safety

from reference import (
    ScoreSheet,
    class_of,
    class_sheet,
    entries_init,
    entries_step,
    entries_terminal,
    lar_sum_bound,
    rep_word,
    rep_words,
    step_class,
)
from conftest import m, random_muller_game, word
from test_acceptance import corpus_config


def test_search_numbers_keys_breadth_first():
    def expand(k):
        # each successor key once, as table requires
        return ((2 * k + 1) % 10, 2 * k % 10)

    def drive(search, it, stop=None):
        expanded = []
        for i, k in it:
            expanded.append(i)
            for t in expand(k):
                search.add(t, i)
            if len(expanded) == stop:
                break
        return expanded

    # seeds come first, duplicates dropped
    search = Search([3, 1, 3])
    assert (search.keys, list(search.parents)) == ([3, 1], [-1, -1])
    assert search.add(1, 0) == 1 and len(search.keys) == 2
    # an iterator stopped mid-search resumes where it stopped
    it = iter(search)
    assert drive(search, it, stop=3) == [0, 1, 2]
    assert drive(search, it) == list(range(3, 10))
    assert search.keys == [3, 1, 7, 6, 2, 5, 4, 0, 9, 8]
    assert list(search.parents) == [-1, -1, 0, 0, 1, 2, 2, 5, 6, 6]

    # exactly max_states keys are admitted
    full = Search([3, 1, 3], max_states=10)
    drive(full, full)
    assert len(full.keys) == 10
    capped = Search([3, 1, 3], max_states=9)
    with pytest.raises(SizeLimitError, match="cap of 9 states"):
        drive(capped, capped)
    assert capped.keys == search.keys[:9]

    # table expands every key and returns sorted successor numbers
    table = Search([3, 1, 3]).table(expand)
    number = {k: i for i, k in enumerate(search.keys)}
    assert table == tuple(tuple(sorted({number[t] for t in expand(k)})) for k in search.keys)
    assert all(list(row) == sorted(set(row)) for row in table)
    assert table[0] == (2, 3)


def unsafe_steps(red):
    """An independent recount of the keys that reached the threshold: each
    class's decoded key stepped by entries_step along every successor
    of its last vertex, the distinct (vertex, entries) pairs that reach
    the threshold, each with the first class that steps into it.  One
    pair table serves the whole recount."""
    steps = {}
    pairs = {}
    for c in range(red.n_classes):
        if c == red.sink:
            continue
        sheet = class_sheet(red, c)
        for u in red.base_arena.succ[sheet.last]:
            after = entries_step(red.family, sheet.entries, u, pairs)
            if entries_terminal(after, red.threshold):
                steps.setdefault((u, after), c)
    return steps


def check_unsafe_steps(red):
    # the build counts one key per distinct crossing, and each crossing
    # leads from its class's representative prefix to the sink
    steps = unsafe_steps(red)
    assert len(steps) == red.unsafe_class_count
    assert (red.sink is None) == (not steps)
    for (u, _), c in steps.items():
        assert class_of(red, rep_word(red, c) + (u,)) == red.sink


@pytest.fixture
def ex4_reduction(example4):
    arena, muller = example4
    return build_safety_game(arena, muller)


def test_example4_counts(ex4_reduction):
    red = ex4_reduction
    assert red.n_classes == 20
    assert bin(red.game.safe).count("1") == 19
    assert red.unsafe_class_count == 4
    assert red.sink is not None
    assert not red.game.safe & bit(red.sink)


def test_example4_embedding(ex4_reduction):
    red = ex4_reduction
    for v in range(3):
        c = red.embed[v]
        assert red.game.safe & bit(c)
        assert class_of(red, (v,)) == c
        assert not entries_terminal(class_sheet(red, c).entries, 2)
    for c in range(red.n_classes):
        if c != red.sink:
            assert not entries_terminal(class_sheet(red, c).entries, red.threshold)
    check_unsafe_steps(red)


def test_example4_class_merging(ex4_reduction):
    red = ex4_reduction
    assert class_of(red, word("10012")) == class_of(red, word("12"))
    assert class_of(red, word("100101")) == red.sink
    assert class_of(red, word("10010")) != red.sink


def test_class_of_rejects_bad_input(ex4_reduction):
    red = ex4_reduction
    with pytest.raises(ValueError, match="^word is not a path of the arena$"):
        class_of(red, word("02"))
    # a path whose proper prefix 100101 already reached the sink
    with pytest.raises(ValueError, match="^a proper prefix already reached the threshold$"):
        class_of(red, word("1001010"))
    with pytest.raises(ValueError, match="^empty play prefix$"):
        class_of(red, ())


def test_quotient_ownership_and_edges(ex4_reduction, example4):
    arena, _ = example4
    red = ex4_reduction
    quotient = red.game.arena
    for c in range(red.n_classes):
        if c == red.sink:
            assert quotient.succ[c] == (c,)
            continue
        sheet = class_sheet(red, c)
        assert quotient.owner[c] == arena.owner[sheet.last]
        # one quotient edge per arena edge out of the last vertex
        targets = {step_class(red, c, v) for v in arena.succ[sheet.last]}
        assert targets == set(quotient.succ[c])
        for v in arena.succ[sheet.last]:
            t = step_class(red, c, v)
            if t != red.sink:
                assert class_sheet(red, t).last == v
    with pytest.raises(ValueError):
        step_class(red, red.embed[0], 2)  # (0, 2) is not an arena edge


def test_sink_is_terminal_and_looped(ex4_reduction):
    red = ex4_reduction
    assert red.keys[red.sink] == -1 and class_sheet(red, red.sink) is None
    assert rep_word(red, red.sink) is None
    assert red.game.arena.succ[red.sink] == (red.sink,)
    check_unsafe_steps(red)


def test_build_is_deterministic(example4):
    arena, muller = example4
    a = build_safety_game(arena, muller)
    b = build_safety_game(arena, muller)
    assert a.embed == b.embed
    assert rep_words(a) == rep_words(b)
    assert a.keys == b.keys
    assert a.game.arena == b.game.arena
    assert a.game.safe == b.game.safe


def test_trivial_family_single_class():
    arena = Arena.build([0], [(0, 0)])
    muller = MullerCondition(frozenset({m(0)}))
    red = build_safety_game(arena, muller, tracked_player=1)
    assert red.family == ()
    assert red.n_classes == 1
    assert red.sink is None


def test_tracked_player_zero_swaps_roles(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller, tracked_player=0)
    assert red.base_arena.owner == (0, 1, 0)
    assert set(red.family) == {m(0), m(2), m(0, 1, 2)}
    check_unsafe_steps(red)
    # Player 1 cannot bound Player 0's scores anywhere in this game
    from scoregames.safety_solver import solve_safety

    sol = solve_safety(red.game)
    assert all(not sol.w0 & bit(red.embed[v]) for v in range(3))


def test_threshold_two_is_sound_but_incomplete(example4):
    arena, muller = example4
    red2 = build_safety_game(arena, muller, threshold=2)
    check_unsafe_steps(red2)
    from scoregames.safety_solver import solve_safety

    sol = solve_safety(red2.game)
    # Player 1 can force a score of 2 from everywhere here
    assert all(not sol.w0 & bit(red2.embed[v]) for v in range(3))


def test_state_cap(example4):
    arena, muller = example4
    with pytest.raises(SizeLimitError) as err:
        build_safety_game(arena, muller, max_states=5)
    assert "5" in str(err.value)


def test_bad_arguments(example4):
    arena, muller = example4
    with pytest.raises(ValueError):
        build_safety_game(arena, muller, tracked_player=2)
    with pytest.raises(ValueError):
        build_safety_game(arena, muller, threshold=4)


def test_lar_sum_bound_values():
    # n=3: k=1: 3*1*2*1=6; k=2: 3*2*4*2=48; k=3: 1*6*8*6=288 -> 342 + 1
    assert lar_sum_bound(3) == 343
    assert lar_sum_bound(1) == 3
    # the coarser factorial-cubed form only holds from n=4 on
    from math import factorial

    assert lar_sum_bound(3) > factorial(3) ** 3
    for n in range(4, 8):
        assert lar_sum_bound(n) <= factorial(n) ** 3


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_random_reductions_respect_bounds_and_edges(seed):
    arena, muller = random_muller_game(seed, max_n=4)
    red = build_safety_game(arena, muller)
    assert red.n_classes <= lar_sum_bound(arena.n)
    # the seeds are numbered first, and every successor row is sorted and distinct
    assert red.embed == tuple(range(arena.n))
    for row in red.game.arena.succ:
        assert list(row) == sorted(set(row))
    for c in range(red.n_classes):
        if c == red.sink:
            continue
        sheet = class_sheet(red, c)
        assert not entries_terminal(sheet.entries, red.threshold)
        for v in arena.succ[sheet.last]:
            step_class(red, c, v)
    check_unsafe_steps(red)


@pytest.mark.parametrize(
    "names, joiner",
    [(("0", "1", "2"), ""), (("left", "mid", "right"), "."), (("x.y", "x", "y"), " ")],
)
def test_class_names_follow_rep_words(example4, names, joiner):
    # with a name holding a '.', the words (x.y) and (x, y) must not both
    # read "x.y": distinct classes get distinct names
    arena, muller = example4
    red = build_safety_game(Arena(names, arena.owner, arena.succ), muller)
    quotient = red.game.arena
    assert quotient.names[red.sink] == "unsafe"
    assert quotient.names[1:3] == (quotient.names[1], quotient.names[2])
    assert len(set(quotient.names)) == quotient.n
    for c in range(red.n_classes):
        if c != red.sink:
            expected = "[" + joiner.join(names[v] for v in rep_word(red, c)) + "]"
            assert quotient.names[c] == expected


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_transitions_agree_with_class_lookup(seed):
    # folding the stored transition table along a walk lands on the class
    # whose sheet the spec kernel computes for the walk; each class's sheet,
    # LAR included, is the spec fold along its representative prefix
    import random as rnd

    def fold(path, pairs):
        entries = entries_init(red.family, path[0])
        for u in path[1:]:
            assert not entries_terminal(entries, red.threshold)
            entries = entries_step(red.family, entries, u, pairs)
        return ScoreSheet(path[-1], entries)

    arena, muller = random_muller_game(seed, max_n=4)
    red = build_safety_game(arena, muller)
    rng = rnd.Random(seed)
    v = rng.randrange(arena.n)
    path = (v,)
    c = red.embed[v]
    entries = entries_init(red.family, v)
    pairs = {}  # one table for the walk and every fold
    for _ in range(12):
        v = rng.choice(arena.succ[path[-1]])
        path = path + (v,)
        c = step_class(red, c, v)
        entries = entries_step(red.family, entries, v, pairs)
        assert c == class_of(red, path)
        if c == red.sink:
            assert entries_terminal(entries, red.threshold)
            break
        assert class_of(red, rep_word(red, c)) == c
        assert class_sheet(red, c) == (v, entries)
        assert class_sheet(red, c) == fold(rep_word(red, c), pairs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5_000))
def test_threshold_two_region_is_contained(seed):
    from scoregames.safety_solver import solve_safety

    arena, muller = random_muller_game(seed, max_n=4)
    w0 = {}
    for threshold in (2, 3):
        red = build_safety_game(arena, muller, threshold=threshold)
        sol = solve_safety(red.game)
        w0[threshold] = mask_of(
            v for v in range(arena.n) if sol.w0 & bit(red.embed[v])
        )
    assert w0[2] & ~w0[3] == 0


def test_build_peak_stays_near_what_the_reduction_keeps():
    # corpus game 7, Player-1 side (10,346 classes): rows are written
    # straight into the successor arrays and the search's key index is
    # dropped at the end, so the build peaks at the kept classes plus the
    # index (154 bytes a class; 210 when the rows were tuples)
    arena, muller = random_game(GeneratorConfig(n=6, density=0.4, seed=7, kind="muller"))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        red = build_safety_game(arena, muller, tracked_player=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert red.n_classes == 10_346
    assert peak - base <= 180 * red.n_classes


def test_quotient_keeps_few_bytes_per_class_and_solving_adds_little():
    # corpus game 7, Player-1 side (10,346 classes): a class keeps one int
    # key, four bytes of parent, its owner and its successor row in the
    # table's int arrays (81 bytes a class; 164 with tuple rows), and
    # solve_safety counts its predecessors into two int arrays and reads
    # the out-degrees off the row offsets (29 bytes a class; 52 before)
    arena, muller = random_game(GeneratorConfig(n=6, density=0.4, seed=7, kind="muller"))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        red = build_safety_game(arena, muller, tracked_player=1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        sol = solve_safety(red.game)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert red.n_classes == 10_346 and sol.w0
    assert kept <= 100 * red.n_classes
    assert peak - kept <= 40 * red.n_classes


@pytest.mark.parametrize(
    "seed, tracked, threshold, digest",
    [
        (7, 1, 2, "c03304fa032d24d468064d3d17f8bd6902f16546e70a9fecb9418b51dcecc51e"),
        (7, 1, 3, "b185e1203dabc7856dc904c8409e073c9ca045e983f5a19e3cb647462e49dfca"),
        (7, 0, 2, "e5187bd51c7c8f94ec2004f2f8f4055588f31560aadf841a6c533704e33ff878"),
        (7, 0, 3, "6f4b85f589298df10d186f16d9b92dd10147ffc1ceedc907311065584465be5d"),
        (11, 1, 2, "f9b91b0e81ce8ef82155e26df746047bc8a886751701faca53aa2cb079da09f1"),
        (11, 1, 3, "e413fccc300f0ed8aacfb5f8e53afa5296a3923bd885b0c235fd467190235a46"),
        (11, 0, 2, "04778877da5dc8ddbeb67a735d3c9ac0fc5e4f16928476c6859e1fd6c92f2654"),
        (11, 0, 3, "1acb47c1e2b988998b26b7d25318e7e64ad9dbfb7e17dadfbcf09c71fafd6335"),
    ],
)
def test_quotient_keys_and_numbering_are_pinned(seed, tracked, threshold, digest):
    # the packed keys, the class numbering and the successor table, bit
    # for bit: a change to the key layout or the search order shows here
    arena, muller = random_game(corpus_config(seed))
    red = build_safety_game(arena, muller, tracked_player=tracked, threshold=threshold)
    succ = red.game.arena.succ
    arrays = (red.keys, red.parents, succ.flat, succ.start)
    text = "\n".join(" ".join(map(str, seq)) for seq in arrays)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
