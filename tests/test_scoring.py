import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames.arena import is_loop
from scoregames.scoring import (
    PackedKernel,
    ScoreState,
    ZERO,
    entries_step,
    entries_terminal,
    family_of,
    lar_of,
    maxscore,
    score_step,
    score_word,
    sheet_init,
    sheet_le,
    sheet_terminal,
    sheet_update,
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
    assert score_step(F01, ScoreState(1, m(0)), 1) == (2, 0)
    assert score_step(F01, ScoreState(2, m(0)), 2) == (0, 0)
    assert score_word(m(1), word("1")) == (1, 0)
    assert score_step(m(1), ZERO, 1) == (1, 0)


def test_lar():
    assert lar_of(word("10012100")) == (2, 1, 0)


# -- sheets ----------------------------------------------------------------

FAMILY = family_of([F01, F12])


def sheet_of(w):
    sheet = sheet_init(FAMILY, w[0])
    for v in w[1:]:
        sheet = sheet_update(FAMILY, sheet, v)
    return sheet


def entry(sheet, f):
    return sheet.entries[FAMILY.index(f)]


def test_sheet_init_values():
    s = sheet_init(FAMILY, 1)
    assert s.last == 1
    assert entry(s, F01) == (0, m(1))
    assert entry(s, F12) == (0, m(1))
    s = sheet_init(family_of([m(1)]), 1)
    assert s.entries == ((1, 0),)
    s = sheet_init(family_of([m(0)]), 1)
    assert s.entries == ((0, 0),)


def test_sheet_update_values():
    s = sheet_of(word("1001"))
    s2 = sheet_update(FAMILY, s, 2)
    assert s2 == sheet_of(word("12"))

    s = sheet_of(word("10010"))
    s2 = sheet_update(FAMILY, s, 1)
    assert entry(s2, F01)[0] == 3
    assert sheet_terminal(s2)
    with pytest.raises(ValueError):
        sheet_update(FAMILY, s2, 0)

    s = sheet_update(FAMILY, sheet_init(FAMILY, 1), 0)
    assert s.last == 0
    assert entry(s, F01) == (1, 0)
    assert entry(s, F12) == (0, 0)


def test_score_equivalent_prefixes_share_a_sheet():
    a = sheet_of(word("10"))
    b = sheet_of(word("1210"))
    assert a == b
    assert hash(a) == hash(b)


def test_sheet_le_examples():
    a = sheet_of(word("1"))
    assert sheet_le(FAMILY, a, a)
    b = sheet_of(word("1001"))
    assert sheet_le(FAMILY, a, b)
    assert not sheet_le(FAMILY, b, a)
    c = sheet_of(word("10"))
    d = sheet_of(word("1210"))
    assert sheet_le(FAMILY, c, d) and sheet_le(FAMILY, d, c)


def test_sheet_le_needs_same_last():
    assert not sheet_le(FAMILY, sheet_of(word("10")), sheet_of(word("1")))


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
    a, b = score_word(f, w), score_word(f, w2)
    le = a.score < b.score or (a.score == b.score and a.acc & ~b.acc == 0)
    if le:
        a2, b2 = score_word(f, w + u), score_word(f, w2 + u)
        assert a2.score < b2.score or (a2.score == b2.score and a2.acc & ~b2.acc == 0)


def _pack(n, entries):
    # tracked set i owns the field of n + 2 bits at offset i * (n + 2):
    # accumulator in the low n bits, score in the next two
    return sum((score << n | acc) << i * (n + 2) for i, (score, acc) in enumerate(entries))


@settings(max_examples=120, deadline=None)
@given(w=words3)
def test_sheet_matches_recomputation(w):
    # the packed kernel of the quotient steps in lockstep with the sheet
    family = family_of([1, 2, 3, 4, 5, 6, 7])
    kernel = PackedKernel(family, 3)
    sheet = sheet_init(family, w[0])
    x = kernel.step(0, w[0])
    assert x == _pack(3, sheet.entries)
    assert kernel.entries(x) == sheet.entries
    for i, v in enumerate(w[1:], start=2):
        if sheet_terminal(sheet):
            return
        sheet = sheet_update(family, sheet, v)
        ys, crossed = kernel.step_row(x, (v,), 3)
        x = kernel.step(x, v)
        assert ys == [x] and x == _pack(3, sheet.entries)
        assert kernel.entries(x) == sheet.entries
        assert (crossed == [0]) == sheet_terminal(sheet)
        for f, st_ in zip(family, sheet.entries):
            expected = score_word(f, w[:i])
            assert st_[0] == min(expected.score, 3)
            if expected.score < 3:
                assert st_ == expected
    assert sheet.last == w[-1]


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
    # from any vector below the threshold, the packed step, the row step
    # and the threshold test agree with entries_step and entries_terminal;
    # the row step also with a caller's data in the bits above the fields
    n = data.draw(st.integers(1, 8), label="n")
    family = family_of(data.draw(st.lists(st.integers(1, 2**n - 1), min_size=1, max_size=10)))
    cap = data.draw(st.sampled_from((2, 3)), label="cap")
    kernel = PackedKernel(family, n)
    top = len(family) * (n + 2)
    entries = data.draw(st.tuples(*(_below(cap, n, f) for f in family)), label="entries")
    x = _pack(n, entries)
    assert kernel.entries(x) == entries
    for v in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20), label="word"):
        row = data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="row")
        high = data.draw(st.integers(0, 15), label="high")
        after = [entries_step(family, entries, u) for u in row]
        ys, crossed = kernel.step_row(x | high << top, row, cap)
        assert ys == [_pack(n, e) for e in after]
        assert [kernel.entries(y) for y in ys] == after
        assert kernel.entries(x | high << top) == entries
        assert crossed == [i for i, e in enumerate(after) if entries_terminal(e, cap)]
        # a lane's tag sets the bits above the fields of the vector it reaches
        lanes = kernel.lanes(row, [u << top for u in row])
        assert kernel.step_lanes(x | high << top, lanes, cap) == (
            [y | u << top for y, u in zip(ys, row)],
            crossed,
        )
        entries = entries_step(family, entries, v)
        ys, crossed = kernel.step_row(x, (v,), cap)
        x = kernel.step(x, v)
        assert ys == [x] and x == _pack(n, entries)
        assert kernel.entries(x) == entries
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
        st_ = score_word(f, w)
        if st_.score > 0:
            assert f in suffixes
            shorter = [s for s in suffixes if s & ~f == 0 and s != f] + [0]
            assert st_.acc in shorter
        else:
            inside = [s for s in suffixes if s & ~f == 0]
            assert st_.acc == (max(inside, key=lambda s: s.bit_count()) if inside else 0)


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
            if state.score >= 2:
                assert is_loop(arena, f)
                break


below_cap = words3.filter(lambda w: w[-1] == 0 and maxscore(FAMILY, w) < 3)


@settings(max_examples=100, deadline=None)
@given(a=below_cap, b=below_cap, c=below_cap)
def test_sheet_le_is_a_preorder(a, b, c):
    sa, sb, sc = sheet_of(a), sheet_of(b), sheet_of(c)
    assert sheet_le(FAMILY, sa, sa)
    if sheet_le(FAMILY, sa, sb) and sheet_le(FAMILY, sb, sc):
        assert sheet_le(FAMILY, sa, sc)


@settings(max_examples=100, deadline=None)
@given(w=words3, f=sets3)
def test_accumulator_is_proper_subset(w, f):
    st_ = score_word(f, w)
    assert st_.acc & ~f == 0
    assert st_.acc != f


def test_entries_terminal():
    assert entries_terminal(((3, 0), (0, 0)))
    assert not entries_terminal(((2, 1), (2, 0)))
    assert entries_terminal(((2, 0),), cap=2)
