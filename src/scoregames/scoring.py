"""Incremental score and accumulator calculus over play prefixes.

For a vertex set F, ``score`` counts how often F has been traversed
completely since the last visit outside F, and ``acc`` collects the vertices
of F seen since the last score increase or reset.  Score sheets bundle the
states of a whole family of tracked sets together with the last vertex and
are the canonical representatives of score-equivalence classes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence


class ScoreState(NamedTuple):
    score: int
    acc: int  # bitmask, always a proper subset of the tracked set


ZERO = ScoreState(0, 0)


def score_step(f: int, state: ScoreState, v: int) -> ScoreState:
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
    if state.acc == f & ~b:
        return ScoreState(state.score + 1, 0)
    return ScoreState(state.score, state.acc | b)


def score_word(f: int, word: Sequence[int]) -> ScoreState:
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
            if state.score > best:
                best = state.score
    return best


def lar_update(lar: tuple, v: int) -> tuple:
    """Move ``v`` to the most-recent end of the record."""
    if v in lar:
        lar = tuple(u for u in lar if u != v)
    return lar + (v,)


def lar_of(word: Sequence[int]) -> tuple:
    lar = ()
    for v in word:
        lar = lar_update(lar, v)
    return lar


def family_of(sets: Iterable[int]) -> tuple:
    """Canonical (sorted, deduplicated) tuple of tracked set masks."""
    return tuple(sorted(set(sets)))


def entries_init(family: Sequence[int], v: int) -> tuple:
    return tuple(score_step(f, ZERO, v) for f in family)


def entries_step(family: Sequence[int], entries: Sequence[ScoreState], v: int) -> tuple:
    # hot path of the quotient construction; plain tuples compare and hash
    # exactly like ScoreState
    b = 1 << v
    out = []
    push = out.append
    for f, (score, acc) in zip(family, entries):
        if not f & b:
            push(ZERO)
        elif acc == f & ~b:
            push((score + 1, 0))
        else:
            push((score, acc | b))
    return tuple(out)


def entries_terminal(entries: Sequence[ScoreState], cap: int = 3) -> bool:
    return any(st[0] >= cap for st in entries)


# Flat alternating (score, acc, score, acc, ...) tuples for the quotient
# construction, where hashing and stepping dominate the running time.

def flat_members(family: Sequence[int], n: int) -> tuple:
    """Per-vertex view of ``family`` for ``flat_step``: for each vertex v, the
    (position, residual mask, bit) of every set containing v.  Every other
    set resets to (0, 0) on v."""
    out = []
    for v in range(n):
        b = 1 << v
        out.append(tuple((2 * i, f & ~b, b) for i, f in enumerate(family) if f & b))
    return tuple(out)


def flat_step(members: tuple, flat: tuple, v: int) -> tuple:
    """``entries_step`` over a flat entry vector, with ``members`` from
    ``flat_members``; returns (vector, highest score produced by an
    increment) so callers detect threshold hits for free.  Stepping the
    all-zero vector gives the single-letter vector of ``v``."""
    out = [0] * len(flat)
    hit = 0
    for i, rem, b in members[v]:
        a = flat[i + 1]
        if a == rem:
            s = flat[i] + 1
            if s > hit:
                hit = s
            out[i] = s
        else:
            out[i] = flat[i]
            out[i + 1] = a | b
    return tuple(out), hit


@dataclass(frozen=True, eq=False)
class ScoreSheet:
    """Scores and accumulators of one play prefix for a fixed tracked family.

    ``entries`` is aligned with the family tuple the sheet was built from.
    Two prefixes with equal sheets are score-equivalent; the latest
    appearance record is carried for diagnostics only and deliberately
    ignored by equality and hashing.
    """

    last: int
    entries: tuple
    lar: tuple
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.last, self.entries)))

    def key(self):
        return self.last, self.entries

    def __eq__(self, other):
        if not isinstance(other, ScoreSheet):
            return NotImplemented
        return self.last == other.last and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def max_score(self) -> int:
        return max((st[0] for st in self.entries), default=0)


def sheet_init(family: Sequence[int], v: int) -> ScoreSheet:
    return ScoreSheet(v, entries_init(family, v), (v,))


def sheet_update(family: Sequence[int], sheet: ScoreSheet, v: int, cap: int = 3) -> ScoreSheet:
    """Advance the sheet by one vertex.  Scores saturate at ``cap``: a sheet
    holding an entry at the cap is terminal and must not be advanced further.
    """
    if entries_terminal(sheet.entries, cap):
        raise ValueError(f"sheet already holds a score of {cap}; terminal sheets are frozen")
    return ScoreSheet(v, entries_step(family, sheet.entries, v), lar_update(sheet.lar, v))


def sheet_terminal(sheet: ScoreSheet, cap: int = 3) -> bool:
    return entries_terminal(sheet.entries, cap)


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
