import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames import scoring
from scoregames.arena import SizeLimitError, is_loop
from scoregames.reduction import build_safety_game
from scoregames.scoring import (
    AT_CAP,
    CodeTable,
    PackedKernel,
    ZERO,
    family_of,
    score_step,
)

from reference import (
    ScoreSheet,
    class_sheet,
    decode,
    entries_init,
    entries_step,
    entries_terminal,
    lar_of,
    maxscore,
    rank,
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


KERNEL = PackedKernel(FAMILY, 3)


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


def _pack(n, entries):
    # tracked set i owns the field of n + 2 bits at offset i * (n + 2):
    # accumulator in the low n bits, score in the next two
    return sum((score << n | acc) << i * (n + 2) for i, (score, acc) in enumerate(entries))


@settings(max_examples=120, deadline=None)
@given(w=words3)
def test_sheet_matches_recomputation(w):
    # the packed kernel of the quotient steps in lockstep with entries_step
    family = family_of([1, 2, 3, 4, 5, 6, 7])
    kernel = PackedKernel(family, 3)
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
        (x,), crossed = kernel.step_lanes(x, lanes[v : v + 1], 3)
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
    # from any vector below the threshold, whatever its bits above the
    # fields, the packed step of a row of lanes and its threshold test
    # agree with entries_step and entries_terminal, and each key reached
    # holds its successor above the fields
    n = data.draw(st.integers(1, 8), label="n")
    family = family_of(data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=10)))
    cap = data.draw(st.sampled_from((2, 3)), label="cap")
    kernel = PackedKernel(family, n)
    top = kernel.top
    assert top == len(family) * (n + 2)  # keys keep their last vertex above the fields
    entries = data.draw(st.tuples(*(_below(cap, n, f) for f in family)), label="entries")
    x = _pack(n, entries)
    assert unpack(family, n, x) == (0, entries)
    pairs = {}  # one table through every step of the example
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="word"):
        row = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="row")
        high = data.draw(st.integers(0, 15), label="high")
        after = [entries_step(family, entries, u, pairs) for u in row]
        ys, crossed = kernel.step_lanes(x | high << top, kernel.lanes(row), cap)
        assert ys == [_pack(n, e) | u << top for e, u in zip(after, row)]
        assert [unpack(family, n, y) for y in ys] == list(zip(row, after))
        assert unpack(family, n, x | high << top).entries == entries
        assert crossed == [i for i, e in enumerate(after) if entries_terminal(e, cap)]
        entries = entries_step(family, entries, v, pairs)
        (x,), crossed = kernel.step_lanes(x, kernel.lanes((v,)), cap)
        assert x == _pack(n, entries) | v << top
        assert unpack(family, n, x) == (v, entries)
        assert (crossed == [0]) == entries_terminal(entries, cap)
        if entries_terminal(entries, cap):
            break


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


# -- code-string sheets ----------------------------------------------------


def test_code_table_fills_rows_on_demand():
    # codes are numbered from 2 as the table meets them; a step fills only
    # its own row's entries for the codes of its sheet, and every new code
    # gets an unknown entry in every row
    table = CodeTable(FAMILY, 3, 3)
    a = table.encode(entries_init(FAMILY, 0))
    assert a == "\x02\x03" and table.rows == [[0, 1, 0, 0]] * 3
    b = scoring.entries_step(a, 1, table)
    assert b == "\x04\x05"
    assert table.codes[2:] == [(0, 0, m(0)), (1, 0, 0), (0, 1, 0), (1, 0, m(1))]
    assert table.rows[1] == [0, 1, 4, 5, 0, 0]
    assert table.rows[0] == table.rows[2] == [0, 1, 0, 0, 0, 0]
    # the reset of the second set meets the ZERO code it already has
    assert scoring.entries_step(b, 0, table) == "\x06\x03"
    assert decode(table, "\x06\x03") == ((1, m(0)), ZERO)
    assert scoring.entries_step(a, 1, table) == b and len(table.codes) == 7


def test_code_table_crossings_decode_to_the_cap():
    # word 10010 then 1 takes F01 to a score of 3: at cap 3 that is AT_CAP,
    # which decodes to (3, 0); at cap 4 it is an ordinary code
    for cap in (3, 4):
        table = CodeTable(FAMILY, 3, cap)
        w = word("100101")
        sheet = table.encode(entries_init(FAMILY, w[0]))
        for v in w[1:]:
            sheet = scoring.entries_step(sheet, v, table)
        assert (AT_CAP in sheet) == (cap == 3)
        assert decode(table, sheet) == fold(FAMILY, w, {})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_code_step_matches_the_reference(data):
    # from any entries below the cap, a sheet stepped through one code table
    # decodes to the reference fold, holds AT_CAP exactly where the fold
    # reaches the cap, and leaves every row an int for every code
    n = data.draw(st.integers(1, 6), label="n")
    family = family_of(data.draw(st.lists(st.integers(1, 2**n - 1), max_size=8)))
    cap = data.draw(st.integers(2, 5), label="cap")
    table = CodeTable(family, n, cap)
    entries = data.draw(st.tuples(*(_below(cap, n, f) for f in family)), label="entries")
    sheet = table.encode(entries)
    assert decode(table, sheet) == entries and AT_CAP not in sheet
    pairs = {}
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30), label="word"):
        entries = entries_step(family, entries, v, pairs)
        sheet = scoring.entries_step(sheet, v, table)
        assert decode(table, sheet) == entries
        assert (AT_CAP in sheet) == entries_terminal(entries, cap)
        assert all(len(row) == len(table.codes) for row in table.rows)
        assert all(type(c) is int for row in table.rows for c in row)
        if AT_CAP in sheet:
            break


def test_code_table_is_capped(monkeypatch):
    # a table needing a code past the last one a str holds raises
    # SizeLimitError; patched down to code 5, the fifth pair does not fit
    monkeypatch.setattr(scoring, "_CODE_LIMIT", 5)
    table = CodeTable(FAMILY, 3, 3)
    a = scoring.entries_step(table.encode(entries_init(FAMILY, 0)), 1, table)
    assert a == "\x04\x05" and len(table.codes) == 6
    with pytest.raises(SizeLimitError, match="cap of 4 codes"):
        scoring.entries_step(a, 0, table)
