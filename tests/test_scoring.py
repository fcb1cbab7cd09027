import random

from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames import scoring
from scoregames.arena import is_loop
from scoregames.reduction import build_safety_game
from scoregames.scoring import PackedKernel, family_of

from reference import (
    ZERO,
    ScoreSheet,
    class_sheet,
    entries_init,
    entries_step,
    entries_terminal,
    lar_of,
    maxscore,
    rank,
    score_step,
    score_word,
    sheet_le,
    unpack,
)
from conftest import m, random_muller_game, word

F01 = m(0, 1)
F12 = m(1, 2)


# -- frozen single-set examples ------------------------------------------

def test_score_word_paper_values():
    assert score_word(F01, word("10012100")) == (1, m(0))
    assert score_word(F01, word("10012")) == (0, 0)
    assert score_word(F01, word("1001")) == (2, 0)


def test_maxscore_paper_values():
    assert maxscore([F01], word("10012100")) == 2
    assert maxscore([m(0)], word("0")) == 1
    assert maxscore([F01, F12], word("121")) == 1


def test_score_step_cases():
    assert score_step(F01, (1, m(0)), 1) == (2, 0)
    assert score_step(F01, (2, m(0)), 2) == (0, 0)
    assert score_word(m(1), word("1")) == (1, 0)
    assert score_step(m(1), ZERO, 1) == (1, 0)


def test_lar():
    assert lar_of(word("10012100")) == (2, 1, 0)


# -- sheets ----------------------------------------------------------------

FAMILY = family_of([F01, F12])


def fold(family, w, pairs):
    entries = entries_init(family, w[0])
    for v in w[1:]:
        entries = entries_step(family, entries, v, pairs)
    return entries


def sheet_of(w):
    return ScoreSheet(w[-1], fold(FAMILY, w, {}))


KERNEL = PackedKernel(FAMILY, 3, 3)


def le(a, b):
    """The score preorder on the sheets of the words ``a`` and ``b``, by the
    reference, checked against the packed preorder on their class keys."""
    keys = []
    for w in (a, b):
        x = 0  # the empty play's vector
        for v in w:
            (x,), _ = KERNEL.step_lanes(x, KERNEL.lanes((v,)))
        keys.append(x)
    expected = sheet_le(FAMILY, sheet_of(a), sheet_of(b))
    assert scoring.sheet_le(KERNEL, *keys) == expected
    return expected


def entry(entries, f):
    return entries[FAMILY.index(f)]


def test_sheet_init_values():
    e = entries_init(FAMILY, 1)
    assert all(type(p) is tuple for p in e)
    assert entry(e, F01) == (0, m(1))
    assert entry(e, F12) == (0, m(1))
    assert entries_init(family_of([m(1)]), 1) == ((1, 0),)
    assert entries_init(family_of([m(0)]), 1) == ((0, 0),)


def test_sheet_update_values():
    pairs = {}
    e = fold(FAMILY, word("1001"), pairs)
    assert entries_step(FAMILY, e, 2, pairs) == fold(FAMILY, word("12"), pairs)

    e = entries_step(FAMILY, fold(FAMILY, word("10010"), pairs), 1, pairs)
    assert entry(e, F01)[0] == 3
    assert entries_terminal(e)

    e = entries_step(FAMILY, entries_init(FAMILY, 1), 0, pairs)
    assert entry(e, F01) == (1, 0)
    assert entry(e, F12) == (0, 0)


def test_one_table_one_object_per_pair():
    # two different vectors reach equal pairs through one table and get one
    # object for each, with the values a fresh table gives; a reset is ZERO
    # itself and never enters the table
    pairs = {}
    steps = [(entries_init(FAMILY, 0), 1), (entries_init(FAMILY, 2), 1)]
    a, b = (entries_step(FAMILY, e, v, pairs) for e, v in steps)
    assert a == ((1, 0), (0, m(1))) and b == ((0, m(1)), (1, 0))
    assert a[0] is b[1] and a[1] is b[0]
    assert [a, b] == [entries_step(FAMILY, e, v, {}) for e, v in steps]
    assert all(type(p) is tuple for p in a + b)
    c = entries_step(FAMILY, a, 0, pairs)
    assert c == ((1, m(0)), ZERO) and c[1] is ZERO
    assert c[0] is pairs[1, m(0)] and len(pairs) == 3


def test_score_equivalent_prefixes_share_a_sheet():
    a = sheet_of(word("10"))
    b = sheet_of(word("1210"))
    assert a == b
    assert hash(a) == hash(b)


def test_sheet_le_examples():
    a = word("1")
    assert le(a, a)
    b = word("1001")
    assert le(a, b)
    assert not le(b, a)
    c = word("10")
    d = word("1210")
    assert le(c, d) and le(d, c)


def test_sheet_le_needs_same_last():
    assert not le(word("10"), word("1"))


# -- properties -----------------------------------------------------------

words3 = st.lists(st.integers(0, 2), min_size=1, max_size=12).map(tuple)
sets3 = st.integers(1, 7)


@settings(max_examples=200, deadline=None)
@given(
    w=words3,
    w2=words3,
    u=st.lists(st.integers(0, 2), min_size=1, max_size=8).map(tuple),
    f=sets3,
)
def test_congruence_of_scores(w, w2, u, f):
    # appending the same suffix preserves the per-set comparison
    if w[-1] != w2[-1]:
        return
    (sa, aa), (sb, ab) = score_word(f, w), score_word(f, w2)
    if sa < sb or (sa == sb and aa & ~ab == 0):
        (sa, aa), (sb, ab) = score_word(f, w + u), score_word(f, w2 + u)
        assert sa < sb or (sa == sb and aa & ~ab == 0)


def _pack(n, entries, bits=2):
    # tracked set i owns the field of n + bits bits at offset i * (n + bits):
    # accumulator in the low n bits, score in the next ``bits``
    return sum((score << n | acc) << i * (n + bits) for i, (score, acc) in enumerate(entries))


@settings(max_examples=120, deadline=None)
@given(w=words3)
def test_sheet_matches_recomputation(w):
    # the packed kernel of the quotient steps in lockstep with entries_step
    family = family_of([1, 2, 3, 4, 5, 6, 7])
    kernel = PackedKernel(family, 3, 3)
    lanes = kernel.lanes(range(3))  # lanes[v] steps by v
    pairs = {}  # one table through every step of the example
    entries = entries_init(family, w[0])
    x = kernel.step_lanes(0, lanes)[0][w[0]]
    assert x == _pack(3, entries) | w[0] << kernel.top
    assert unpack(family, 3, x) == (w[0], entries)
    for i, v in enumerate(w[1:], start=2):
        if entries_terminal(entries):
            return
        entries = entries_step(family, entries, v, pairs)
        (x,), crossed = kernel.step_lanes(x, lanes[v : v + 1])
        assert x == _pack(3, entries) | v << kernel.top
        assert unpack(family, 3, x) == (v, entries)
        assert (crossed == [0]) == entries_terminal(entries)
        for f, st_ in zip(family, entries):
            expected = score_word(f, w[:i])
            assert st_[0] == min(expected[0], 3)
            if expected[0] < 3:
                assert st_ == expected


def _below(cap, n, f):
    # a score below ``cap`` with an accumulator that is a proper subset of f
    def state(pair):
        score, acc = pair
        acc &= f
        return (score, acc & (acc - 1) if acc == f else acc)

    return st.tuples(st.integers(0, cap - 1), st.integers(0, 2**n - 1)).map(state)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_packed_step_matches_entries_step(data):
    # at caps 2 to 17 (score fields of 2 to 5 bits), from any vector below
    # the cap, whatever its bits above the fields, the packed step of a row
    # of lanes and its cap test agree with the tuple fold and
    # entries_terminal, each key reached holds its successor above the
    # fields, and scoring.entries_step gives the one-lane row's key, or -1
    # where it reaches the cap
    n = data.draw(st.integers(1, 8), label="n")
    family = family_of(data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=10)))
    cap = data.draw(st.integers(2, 17), label="cap")
    bits = max(2, cap.bit_length())
    kernel = PackedKernel(family, n, cap)
    top = kernel.top
    assert top == len(family) * (n + bits)  # keys keep their last vertex above the fields
    entries = data.draw(st.tuples(*(_below(cap, n, f) for f in family)), label="entries")
    x = _pack(n, entries, bits)
    assert unpack(family, n, x, bits) == (0, entries)
    pairs = {}  # one table through every step of the example
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="word"):
        row = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="row")
        high = data.draw(st.integers(0, 15), label="high")
        after = [entries_step(family, entries, u, pairs) for u in row]
        ys, crossed = kernel.step_lanes(x | high << top, kernel.lanes(row))
        assert ys == [_pack(n, e, bits) | u << top for e, u in zip(after, row)]
        assert [unpack(family, n, y, bits) for y in ys] == list(zip(row, after))
        assert unpack(family, n, x | high << top, bits).entries == entries
        assert crossed == [i for i, e in enumerate(after) if entries_terminal(e, cap)]
        one = [scoring.entries_step(x | high << top, u, kernel) for u in row]
        assert one == [-1 if i in crossed else y for i, y in enumerate(ys)]
        before = x
        entries = entries_step(family, entries, v, pairs)
        (x,), crossed = kernel.step_lanes(x, kernel.lanes((v,)))
        assert x == _pack(n, entries, bits) | v << top
        assert unpack(family, n, x, bits) == (v, entries)
        assert (crossed == [0]) == entries_terminal(entries, cap)
        assert scoring.entries_step(before, v, kernel) == (-1 if crossed else x)
        if entries_terminal(entries, cap):
            break


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_state_numbers_ride_above_the_vertex(data):
    # at caps 2 to 17 and n 1 to 8, a state number put above a key's last
    # vertex reads back with state, leaves last and vector as they were,
    # and the step of a row, one lane or many, writes the same fields and
    # vertices with it as without it, dropping it
    n = data.draw(st.integers(1, 8), label="n")
    family = family_of(data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=10)))
    cap = data.draw(st.integers(2, 17), label="cap")
    bits = max(2, cap.bit_length())
    kernel = PackedKernel(family, n, cap)
    entries = data.draw(st.tuples(*(_below(cap, n, f) for f in family)), label="entries")
    v = data.draw(st.integers(0, n - 1), label="v")
    key = _pack(n, entries, bits) | v << kernel.top
    m = data.draw(st.one_of(st.integers(0, 3), st.integers(0, 2**40)), label="m")
    held = kernel.with_state(key, m)
    assert kernel.state(held) == m
    assert kernel.state(key) == 0
    assert kernel.last(held) == kernel.last(key) == v
    assert kernel.vector(held) == kernel.vector(key) == _pack(n, entries, bits)
    assert unpack(family, n, kernel.vector(held), bits).entries == entries
    row = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="row")
    assert kernel.step_lanes(held, kernel.lanes(row)) == kernel.step_lanes(key, kernel.lanes(row))
    for u in row:
        y = scoring.entries_step(held, u, kernel)
        assert y == scoring.entries_step(key, u, kernel)
        if y >= 0:
            assert (kernel.state(y), kernel.last(y)) == (0, u)
            assert kernel.state(kernel.with_state(y, m)) == m


@settings(max_examples=150, deadline=None)
@given(w=st.lists(st.integers(0, 3), min_size=1, max_size=14).map(tuple))
def test_lar_determines_scores(w):
    # positive scores appear exactly at the suffix sets of the record
    lar = lar_of(w)
    suffixes = [m(*lar[i:]) for i in range(len(lar))]
    for f in range(1, 16):
        score, acc = score_word(f, w)
        if score > 0:
            assert f in suffixes
            shorter = [s for s in suffixes if s & ~f == 0 and s != f] + [0]
            assert acc in shorter
        else:
            inside = [s for s in suffixes if s & ~f == 0]
            assert acc == (max(inside, key=lambda s: s.bit_count()) if inside else 0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_score_two_implies_loop(seed):
    arena, _ = random_muller_game(seed)
    rng = random.Random(seed)
    v = rng.randrange(arena.n)
    walk = [v]
    for _ in range(14):
        v = rng.choice(arena.succ[v])
        walk.append(v)
    for f in range(1, arena.full_mask + 1):
        state = ZERO
        for u in walk:
            state = score_step(f, state, u)
            if state[0] >= 2:
                assert is_loop(arena, f)
                break


below_cap = words3.filter(lambda w: w[-1] == 0 and maxscore(FAMILY, w) < 3)


@settings(max_examples=100, deadline=None)
@given(a=below_cap, b=below_cap, c=below_cap)
def test_sheet_le_is_a_preorder(a, b, c):
    assert le(a, a)
    if le(a, b) and le(b, c):
        assert le(a, c)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    tracked=st.sampled_from((0, 1)),
    threshold=st.sampled_from((2, 3)),
)
def test_packed_preorder_matches_the_reference(seed, tracked, threshold):
    # every pair of up to 80 class keys of a real reduction, equal keys and
    # keys with different last vertices included: the packed preorder and
    # rank agree with the reference on the decoded sheets
    arena, muller = random_muller_game(seed)
    red = build_safety_game(arena, muller, tracked_player=tracked, threshold=threshold)
    classes = [c for c in range(red.n_classes) if c != red.sink]
    classes = random.Random(seed).sample(classes, min(len(classes), 80))
    kernel, keys = red.kernel, red.keys
    sheets = {c: class_sheet(red, c) for c in classes}
    for a in classes:
        assert kernel.rank(keys[a]) == rank(sheets[a])
        for b in classes:
            expected = sheet_le(red.family, sheets[a], sheets[b])
            assert scoring.sheet_le(kernel, keys[a], keys[b]) == expected


@settings(max_examples=100, deadline=None)
@given(w=words3, f=sets3)
def test_accumulator_is_proper_subset(w, f):
    _, acc = score_word(f, w)
    assert acc & ~f == 0
    assert acc != f


def test_entries_terminal():
    assert entries_terminal(((3, 0), (0, 0)))
    assert not entries_terminal(((2, 1), (2, 0)))
    assert entries_terminal(((2, 0),), cap=2)
