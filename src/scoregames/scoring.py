"""Incremental score and accumulator calculus over play prefixes.

For a vertex set F, ``score`` counts how often F has been traversed
completely since the last visit outside F, and ``acc`` collects the vertices
of F seen since the last score increase or reset.  Score sheets bundle the
states of a whole family of tracked sets together with the last vertex and
are the canonical representatives of score-equivalence classes.

The quotient construction packs a family's states into one int, laid out
and stepped by ``PackedKernel``: one kernel call steps a whole successor
row, read from its lanes.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

# A state of one tracked set is the plain pair (score, acc); ``acc`` is a
# bitmask, always a proper subset of the set.  ZERO is the one reset pair.
ZERO = (0, 0)


def score_step(f: int, state: tuple, v: int) -> tuple:
    """One letter of the scoring update for the set ``f`` (a bitmask):

    - v outside f resets to (0, {});
    - v completing the accumulator (acc = f minus v) increments the score
      and empties the accumulator;
    - otherwise v joins the accumulator.

    Folding from ``ZERO`` reproduces the single-letter base case, so word
    scores are plain folds of this step.
    """
    b = 1 << v
    if not f & b:
        return ZERO
    score, acc = state
    if acc == f & ~b:
        return (score + 1, 0)
    return (score, acc | b)


def score_word(f: int, word: Sequence[int]) -> tuple:
    if not word:
        raise ValueError("score of the empty word is undefined")
    state = ZERO
    for v in word:
        state = score_step(f, state, v)
    return state


def maxscore(family: Iterable[int], word: Sequence[int]) -> int:
    """max over all sets in ``family`` and all prefixes of ``word``."""
    if not word:
        raise ValueError("maxscore of the empty word is undefined")
    best = 0
    for f in family:
        state = ZERO
        for v in word:
            state = score_step(f, state, v)
            if state[0] > best:
                best = state[0]
    return best


def lar_of(word: Sequence[int]) -> tuple:
    """The latest appearance record of ``word``: its distinct vertices in
    the order of their last occurrence, the records ``lar_sum_bound``
    counts."""
    return tuple(reversed(dict.fromkeys(reversed(word))))


def family_of(sets: Iterable[int]) -> tuple:
    """Canonical (sorted, deduplicated) tuple of tracked set masks."""
    return tuple(sorted(set(sets)))


def entries_init(family: Sequence[int], v: int) -> tuple:
    return tuple(score_step(f, ZERO, v) for f in family)


def entries_step(family: Sequence[int], entries: Sequence[tuple], v: int, pairs: dict) -> tuple:
    # A reset is ZERO; every other pair comes from ``pairs``, a table the
    # caller owns that maps each (score, acc) it has seen to its one
    # tuple, so equal pairs in the caller's states are one object.  The
    # table grows to the distinct pairs of its caller.
    b = 1 << v
    out = []
    push = out.append
    share = pairs.setdefault
    for f, (score, acc) in zip(family, entries):
        if not f & b:
            push(ZERO)
        else:
            p = (score + 1, 0) if acc == f & ~b else (score, acc | b)
            push(share(p, p))
    return tuple(out)


def entries_terminal(entries: Sequence[tuple], cap: int = 3) -> bool:
    return any(st[0] >= cap for st in entries)


class PackedKernel:
    """``entries_step`` for a whole tracked family on one packed int, the
    score vector of the quotient construction, where hashing and stepping
    dominate the running time.

    Tracked set i owns the field of n + 2 bits at offset i * (n + 2): its
    accumulator in the low n bits and its score in the next two.  Vectors
    below the threshold have scores of at most 2, so one increment still
    fits in the field; the all-zero vector is the empty play, so stepping
    it gives the single-letter vector of a vertex.  A step reads only the
    fields, so a caller may keep its own data in the bits above them and
    step the whole int, and a lane's tag sets those bits in the vector a
    step reaches: the quotient keeps a class's last vertex there.
    """

    def __init__(self, family: Sequence[int], n: int):
        self.family = tuple(family)
        self.n = n
        width = n + 2
        ones = (1 << n) - 1
        accm = slo = 0
        for i in range(len(self.family)):
            accm |= ones << i * width
            slo |= 1 << i * width + n
        self._accm, self._slo = accm, slo
        # per vertex v: keep (the fields of sets containing v), rem (f minus
        # v, and all ones for the other fields, which never match) and bv
        # (bit v in the fields of keep)
        self._masks = []
        for v in range(n):
            b = 1 << v
            keep = rem = bv = 0
            for i, f in enumerate(self.family):
                if f & b:
                    keep |= ((1 << width) - 1) << i * width
                    rem |= (f & ~b) << i * width
                    bv |= b << i * width
                else:
                    rem |= ones << i * width
            self._masks.append((keep, rem, bv))

    def lanes(self, vs: Iterable[int], tags: Iterable[int]) -> tuple:
        """A row of successors ``vs`` made ready for ``step_lanes``: one
        lane per successor, holding what its step reads and the caller's
        tag for it, ``tags[i]``, which the step ORs into the vector after
        ``vs[i]``.  A tag must have no bit in the fields.  A caller
        stepping many vectors through one row makes its lanes once."""
        masks = self._masks
        return tuple(masks[v] + (tag,) for v, tag in zip(vs, tags))

    def step_lanes(self, x: int, lanes: Iterable[tuple], cap: int = 3) -> tuple:
        """The vector after each successor of a row of ``lanes`` from
        ``x``, in order and ORed with the lane's tag, as a list, and the
        list of the positions of the steps whose vector has a score of
        ``cap`` (2 or 3).  Every score of ``x`` must be below ``cap``.

        One step resets the sets without v, lets a set whose accumulator is
        f minus v score and empty it, and adds v to the accumulator of the
        others; the bits above the fields come out as the tag.  Equality of
        each field with f minus v is read off the carry of ``d + accm`` into
        the field's score bit, and a step crosses ``cap`` where such a field
        scored ``cap - 1`` before.
        """
        accm, slo, n = self._accm, self._slo, self.n
        # below cap, only score cap - 1 sets score bit cap - 2; move it to bit 0
        below = cap - 2
        ys, crossed = [], []
        append = ys.append
        for keep, rem, bv, tag in lanes:
            y = x & keep
            d = (y ^ rem) & accm  # zero in the fields whose accumulator is f minus v
            eq = slo & ~(d + accm)
            if eq & y >> below:
                crossed.append(len(ys))
            eq_acc = eq - (eq >> n)  # the accumulator bits of the eq fields
            append(((y | bv) & ~eq_acc) + eq | tag)
        return ys, crossed

    def entries(self, x: int) -> tuple:
        """The (score, acc) pair of each tracked set, as ``entries_step``
        gives them."""
        width = self.n + 2
        ones = (1 << self.n) - 1
        out = []
        for i in range(len(self.family)):
            field_ = x >> i * width
            out.append((field_ >> self.n & 3, field_ & ones))
        return tuple(out)


class ScoreSheet(NamedTuple):
    """Scores and accumulators of one play prefix for a fixed tracked family.

    ``entries`` is aligned with the family tuple the sheet was built from.
    Two prefixes with equal sheets are score-equivalent, so a sheet is its
    own class key.
    """

    last: int
    entries: tuple


def sheet_le(family: Sequence[int], a: ScoreSheet, b: ScoreSheet) -> bool:
    """The score preorder: same last vertex, and for every tracked set either
    a strictly smaller score or an equal score with a contained accumulator."""
    if a.last != b.last:
        return False
    assert len(a.entries) == len(family) == len(b.entries)
    for (sa, aa), (sb, ab) in zip(a.entries, b.entries):
        if sa < sb:
            continue
        if sa == sb and aa & ~ab == 0:
            continue
        return False
    return True
