"""The paper's definitions, written out plainly as the tests' reference.

The scalar scoring step and the score of a word, the latest appearance
record and its class-count bound, a family's score entries as tuples of
(score, acc) pairs, the decoding of a packed key back to them, the score
preorder on decoded sheets, the class of a play prefix, lassos and their
winner, a monitor's run over a word, and the checks of a Muller strategy
and of a request-response strategy by the cycles of their products, which
use no scores and no monitor.  No path of the
``scoregames`` package (command line, library pipeline or benchmark) runs
this module; the tests check the package's kernel, quotients, solvers and
certificates against it.
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
    f1_loops,
    iter_bits,
    mask_of,
)
from scoregames.reduction import SafetyReduction
from scoregames.safety_framework import MonitorDFA
from scoregames.strategy import FiniteStateStrategy, consistent_product

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


# -- score sheets and the score preorder ---------------------------------


class ScoreSheet(NamedTuple):
    """Scores and accumulators of one play prefix for a fixed tracked family.

    ``entries`` is aligned with the family tuple the sheet was built from.
    Two prefixes with equal sheets are score-equivalent, so a sheet is its
    own class key.
    """

    last: int
    entries: tuple


def unpack(family: Sequence[int], n: int, key: int, bits: int = 2) -> ScoreSheet:
    """The sheet a packed key over the vertices ``0..n-1`` with scores of
    ``bits`` bits stands for.  Tracked set i owns the field of n + bits
    bits at offset i * (n + bits), its accumulator in the low n bits and
    its score in the next ``bits``, and the last vertex sits above the
    fields.  Quotient keys, at thresholds 2 and 3, have 2-bit scores."""
    width = n + bits
    fields = [key >> i * width for i in range(len(family))]
    entries = tuple((f >> n & (1 << bits) - 1, f & (1 << n) - 1) for f in fields)
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


def rep_words(red: SafetyReduction) -> list:
    """The first play prefix that reached each class, in class order (None
    for the sink), read off no parent link: a breadth-first search over
    play prefixes through ``class_of`` that expands each class only from
    the first prefix that reaches it.  Asserts that the classes are
    discovered in number order."""
    words: dict = {}
    queue = [(v,) for v in range(red.base_arena.n)]
    for w in queue:  # the queue grows while it is read
        c = class_of(red, w)
        if c in words:
            continue
        assert c == len(words), f"class {c} discovered as class {len(words)}"
        words[c] = None if c == red.sink else w
        if c != red.sink:
            queue.extend(w + (u,) for u in red.base_arena.succ[w[-1]])
    assert len(words) == red.n_classes
    return [words[c] for c in range(red.n_classes)]


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


# -- winning strategies by the cycles of their product ---------------------


def components(nodes: Iterable, succ: dict) -> list:
    """The strongly connected components of the graph on ``nodes`` whose
    edges are ``succ[node]``, each a list of nodes: Tarjan's algorithm, with
    an explicit stack of (node, successor iterator) frames."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    frames: list = []
    out = []

    def visit(x):
        index[x] = low[x] = len(index)
        stack.append(x)
        on_stack.add(x)
        frames.append((x, iter(succ[x])))

    for root in nodes:
        if root in index:
            continue
        visit(root)
        while frames:
            x, it = frames[-1]
            for y in it:
                if y not in index:
                    visit(y)
                    break
                if y in on_stack:
                    low[x] = min(low[x], index[y])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == index[x]:
                    comp = []
                    while True:
                        y = stack.pop()
                        on_stack.discard(y)
                        comp.append(y)
                        if y == x:
                            break
                    out.append(comp)
    return out


def _cycles(succ: dict, inside: list) -> list:
    """The non-trivial strongly connected components of the graph whose
    edges are ``succ[node]``, restricted to the nodes ``inside``: those of
    more than one node, or of one node with a self-loop."""
    keep = set(inside)
    kept = {x: [y for y in succ[x] if y in keep] for x in inside}
    return [comp for comp in components(inside, kept) if len(comp) > 1 or comp[0] in kept[comp[0]]]


def _product_graph(prod) -> dict:
    """Each node of a strategy product with the list of its successors."""
    succ: dict = {node: [] for node in prod.nodes}
    for a, b in prod.edges:
        succ[a].append(b)
    return succ


def wins_from(
    arena: Arena, muller: MullerCondition, strat: FiniteStateStrategy, start: int
) -> bool:
    """Whether every play consistent with ``strat`` from the vertex mask
    ``start`` is won by the strategy's owner, by the Emerson-Lei emptiness
    check, which uses no scores and no monitor.

    A play's infinity set is F exactly when its infinitely visited product
    nodes lie in one strongly connected component of the product restricted
    to the nodes whose vertex is in F, and cover F.  So for each set F the
    owner loses on (``f1_loops`` for a Player-0 strategy, ``f0`` for a
    Player-1 strategy), no non-trivial component of that restriction may
    project onto exactly F."""
    succ = _product_graph(consistent_product(arena, strat, start))
    losing = f1_loops(arena, muller) if strat.owner_player == 0 else muller.f0
    for f in losing:
        inside = [x for x in succ if f >> x[0] & 1]
        if any(mask_of(x[0] for x in comp) == f for comp in _cycles(succ, inside)):
            return False
    return True


def rr_wins_from(
    arena: Arena, condition: RequestResponseCondition, strat: FiniteStateStrategy, start: int
) -> bool:
    """Whether every play consistent with ``strat``, a Player-0 strategy,
    from the vertex mask ``start`` answers every request, by a cycle check
    on the strategy product times the set of pending pairs, which uses no
    monitor and no ages.

    A vertex answers first and then opens a request, as ``rr_monitor``
    reads it, and the first vertex of a play counts; a node's pending set
    is the one after its vertex.  A play loses pair j exactly when, from
    some point on, j stays pending and no response of j is visited: its
    tail then cycles among the nodes where j is pending and whose vertex
    is not a response of j.  So no such restriction may hold a non-trivial
    strongly connected component."""
    moves = _product_graph(consistent_product(arena, strat, start))

    def pending(before: int, v: int) -> int:
        for j, (request, response) in enumerate(condition.pairs):
            if response >> v & 1:
                before &= ~(1 << j)
            if request >> v & 1:
                before |= 1 << j
        return before

    succ: dict = {}
    todo = [((v, strat.initial(v)), pending(0, v)) for v in iter_bits(start)]
    while todo:
        node = todo.pop()
        if node not in succ:
            x, p = node
            succ[node] = [(y, pending(p, y[0])) for y in moves[x]]
            todo += succ[node]
    for j, (_, response) in enumerate(condition.pairs):
        inside = [(x, p) for x, p in succ if p >> j & 1 and not response >> x[0] & 1]
        if _cycles(succ, inside):
            return False
    return True
