"""The paper's definitions, written out plainly as the tests' reference.

The score of a word, the latest appearance record and its class-count
bound, a family's score entries as tuples of (score, acc) pairs, the
decoding of a code-string sheet and of a packed class key back to them,
the score preorder on decoded sheets, the class of a play prefix, lassos
and their winner, and a monitor's run over a word.  No path of the
``scoregames`` package (command line, library pipeline or benchmark) runs
this module; the tests check the package's kernels, quotients and solvers
against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Iterable, NamedTuple, Optional, Sequence

from scoregames.arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    Word,
    iter_bits,
    mask_of,
)
from scoregames.reduction import SafetyReduction
from scoregames.safety_framework import MonitorDFA
from scoregames.scoring import AT_CAP, ZERO, CodeTable, score_step

# -- lassos and their winner ---------------------------------------------


@dataclass(frozen=True)
class Lasso:
    """Finite representation ``stem . cycle^omega`` of an ultimately periodic play."""

    stem: Word
    cycle: Word

    def unfolding(self) -> Word:
        return tuple(self.stem) + tuple(self.cycle)


def infi(lasso: Lasso) -> int:
    """The infinity set of the represented play: the vertices on the cycle."""
    return mask_of(lasso.cycle)


def is_path(arena: Arena, word: Sequence[int]) -> bool:
    return all(arena.has_edge(u, v) for u, v in zip(word, word[1:]))


def lasso_violations(arena: Arena, lasso: Lasso) -> list:
    """Check that stem.cycle and cycle.cycle are paths of the arena."""
    out = []
    if not lasso.cycle:
        out.append("empty cycle")
        return out
    full = lasso.unfolding()
    if any(not (0 <= v < arena.n) for v in full):
        out.append("unknown vertex in lasso")
        return out
    if not is_path(arena, full):
        out.append("stem.cycle is not a path")
    if not arena.has_edge(lasso.cycle[-1], lasso.cycle[0]):
        out.append("cycle does not close")
    return out


def _rr_pair_won(lasso: Lasso, request: int, response: int) -> bool:
    inf = infi(lasso)
    if inf & response:
        return True  # responses recur, every request is answered
    if inf & request:
        return False  # requests recur but responses die out
    # Responses occur at most in the stem; a request is pending at cycle
    # entry iff the last request in the stem has no later response.
    pending = False
    for v in lasso.stem:
        b = 1 << v
        if b & response:
            pending = False
        if b & request:
            pending = True
    return not pending


def winner(arena: Arena, condition: Condition, lasso: Lasso) -> int:
    """The player winning the play represented by ``lasso``.

    Raises ValueError if the lasso is not a path of the arena.
    """
    problems = lasso_violations(arena, lasso)
    if problems:
        raise ValueError("invalid lasso: " + "; ".join(problems))
    inf = infi(lasso)
    if isinstance(condition, MullerCondition):
        return 0 if inf in condition.f0 else 1
    if isinstance(condition, BuchiCondition):
        return 0 if inf & condition.target else 1
    if isinstance(condition, CoBuchiCondition):
        return 0 if inf & ~condition.persistent == 0 else 1
    if isinstance(condition, ParityCondition):
        least = min(condition.priority[v] for v in iter_bits(inf))
        return least % 2
    if isinstance(condition, RequestResponseCondition):
        won = all(_rr_pair_won(lasso, q, p) for q, p in condition.pairs)
        return 0 if won else 1
    raise TypeError(f"unsupported condition {type(condition).__name__}")


# -- scores of words -----------------------------------------------------


def score_word(f: int, word: Sequence[int]) -> tuple:
    """The (score, acc) pair of the set ``f`` after ``word``: a fold of
    ``score_step`` from ``ZERO``."""
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


def lar_sum_bound(n: int) -> int:
    """Upper bound on the class count: the number of latest appearance
    records times the score/accumulator combinations per record, plus the
    sink.  The coarser (n!)^3 form only dominates this sum for n >= 4."""
    return sum(comb(n, k) * factorial(k) * 2**k * factorial(k) for k in range(1, n + 1)) + 1


# -- a family's score entries as tuples -----------------------------------


def entries_init(family: Sequence[int], v: int) -> tuple:
    """The (score, acc) pair of each set of ``family`` after the play ``v``."""
    return tuple(score_step(f, ZERO, v) for f in family)


def entries_step(family: Sequence[int], entries: Sequence[tuple], v: int, pairs: dict) -> tuple:
    """``entries`` after vertex ``v``.  A reset is ZERO; every other pair
    comes from ``pairs``, a table the caller owns that maps each (score,
    acc) it has seen to its one tuple, so equal pairs are one object."""
    out = []
    for f, state in zip(family, entries):
        p = score_step(f, state, v)
        out.append(p if p is ZERO else pairs.setdefault(p, p))
    return tuple(out)


def entries_terminal(entries: Sequence[tuple], cap: int = 3) -> bool:
    """Whether some set's score has reached ``cap``."""
    return any(score >= cap for score, _ in entries)


def decode(table: CodeTable, sheet: str) -> tuple:
    """The (score, acc) pairs a code-string sheet of ``table`` stands for.
    AT_CAP decodes to (cap, 0): a score reaches the cap by an increment,
    which empties the accumulator.  A code listed for another set than its
    position raises ValueError."""
    out = []
    for i, ch in enumerate(sheet):
        if ch == AT_CAP:
            out.append((table.cap, 0))
            continue
        j, score, acc = table.codes[ord(ch)]
        if j != i:
            raise ValueError(f"code {ord(ch)} of set {j} at position {i}")
        out.append((score, acc))
    return tuple(out)


# -- score sheets and the score preorder ---------------------------------


class ScoreSheet(NamedTuple):
    """Scores and accumulators of one play prefix for a fixed tracked family.

    ``entries`` is aligned with the family tuple the sheet was built from.
    Two prefixes with equal sheets are score-equivalent, so a sheet is its
    own class key.
    """

    last: int
    entries: tuple


def unpack(family: Sequence[int], n: int, key: int) -> ScoreSheet:
    """The sheet a packed class key over the vertices ``0..n-1`` stands for.
    Tracked set i owns the field of n + 2 bits at offset i * (n + 2), its
    accumulator in the low n bits and its score in the next two, and the
    last vertex sits above the fields."""
    width = n + 2
    fields = [key >> i * width for i in range(len(family))]
    entries = tuple((f >> n & 3, f & (1 << n) - 1) for f in fields)
    return ScoreSheet(key >> len(family) * width, entries)


def class_sheet(red: SafetyReduction, c: int) -> Optional[ScoreSheet]:
    """The sheet of class ``c``'s key; None for the sink."""
    if c == red.sink:
        return None
    return unpack(red.family, red.base_arena.n, red.keys[c])


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


def rank(sheet: ScoreSheet) -> tuple:
    """The sum of the scores and the sum of the accumulator sizes."""
    return (
        sum(score for score, _ in sheet.entries),
        sum(acc.bit_count() for _, acc in sheet.entries),
    )


# -- classes of play prefixes in a reduction -----------------------------


def step_class(red: SafetyReduction, c: int, v: int) -> int:
    """The quotient successor of class ``c`` under vertex ``v``: the
    successor other than the sink whose last vertex is ``v``, or else the
    sink.  Every other successor of the last vertex leads to the sink."""
    if 0 <= c < red.n_classes and c != red.sink:
        if v in red.base_arena.succ[red.last(c)]:
            for t in red.game.arena.succ[c]:
                if t != red.sink and red.last(t) == v:
                    return t
            return red.sink
    raise ValueError(f"no quotient edge from class {c} labelled {v}")


def class_of(red: SafetyReduction, word: Word) -> int:
    """The class of a play prefix whose proper prefixes stay below the
    threshold; the sink if the last letter crosses it."""
    if not word:
        raise ValueError("empty play prefix")
    if not is_path(red.base_arena, word):
        raise ValueError("word is not a path of the arena")
    c = word[0]  # vertex v is class v
    for v in word[1:]:
        if c == red.sink:
            raise ValueError("a proper prefix already reached the threshold")
        c = step_class(red, c, v)
    return c


def rep_word(red: SafetyReduction, c: int) -> Optional[Word]:
    """The first play prefix that reached class ``c``, read off the parent
    chain; None for the sink."""
    if c == red.sink:
        return None
    out = []
    while c >= 0:
        out.append(red.last(c))
        c = red.parents[c]
    return tuple(reversed(out))


def rep_words(red: SafetyReduction) -> list:
    """``rep_word`` of every class, in class order."""
    return [rep_word(red, c) for c in range(red.n_classes)]


# -- monitors ------------------------------------------------------------


def run(dfa: MonitorDFA, word: Sequence[int]):
    """The state ``dfa`` reaches from its start over ``word``."""
    q = dfa.start
    for v in word:
        q = dfa.step(q, v)
    return q


def lasso_accepted_forever(dfa: MonitorDFA, lasso: Lasso) -> bool:
    """Whether every prefix of the represented play is accepted.  Decidable
    by pumping: once the state at the top of the cycle repeats, acceptance
    repeats forever."""
    q = dfa.start
    for v in lasso.stem:
        q = dfa.step(q, v)
        if not dfa.is_accepting(q):
            return False
    seen = set()
    while q not in seen:
        seen.add(q)
        for v in lasso.cycle:
            q = dfa.step(q, v)
            if not dfa.is_accepting(q):
                return False
    return True
