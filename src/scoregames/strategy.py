"""Finite-state strategies for Muller games.

Every strategy is a ``FiniteStateStrategy``.  The antichain strategy keeps
only the maximal score classes reachable under a fixed positional safety
strategy and makes one move; the permissive strategy keeps the whole
winning region of the quotient and allows every move that stays inside it.
One table routine builds both, and both are certified by an explicit
product search bounding the opponent's scores.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .arena import Arena, MullerCondition, bit, f1_loops, iter_bits
from .reduction import DEFAULT_MAX_STATES, SafetyReduction, Search, _path, build_safety_game
from .safety_solver import SafetySolution, solve_safety
from .scoring import AT_CAP, ZERO, CodeTable, entries_step, family_of, score_step, sheet_le


class _Bottom:
    """Absorbing junk memory state; unreachable under consistent play."""

    __slots__ = ()

    def __repr__(self):
        return "BOT"


BOTTOM = _Bottom()


@dataclass
class FiniteStateStrategy:
    """A memory structure with a next-move table, on numbered memory states.

    State ``i`` is labelled ``states[i]``: a quotient class number (with
    BOTTOM, an ordinary state, numbered last), a monitor state or a strategy
    file's label.  Labels are what files and DOT output print and what
    callers compare.  Over ``n = len(init)`` vertices, ``init`` and ``update``
    hold state numbers in flat ``array('i')`` tables, ``next_move`` moves:

    - ``init[v]`` is vertex ``v``'s initial state;
    - ``update[i * n + v]`` is the state that state ``i`` moves to on ``v``;
    - ``next_move[v]`` is vertex ``v``'s column, a list of its move in each
      state, or None at a vertex without moves, such as the opponent's.  A
      move is a non-empty tuple of successors: one for a deterministic
      strategy, several for a multi-strategy.

    -1 marks a missing ``init`` or ``update`` entry and None a missing move.
    The numbered readers ``init_of``, ``step_of`` and ``moves_of`` raise
    ValueError on one, and so do the label readers ``initial``, ``step``
    and ``moves`` built on them, naming the vertex by ``names`` if it has
    one there and the state by its label.  ``step_of`` and ``moves_of``
    also raise ValueError on a state number outside ``0..len(states)-1``.
    ``table_entries`` walks every entry that is not missing;
    ``from_tables`` builds a strategy from labelled tables.  ``==`` leaves
    ``names`` out, so two strategies with the same labels are equal exactly
    when they behave alike.
    """

    owner_player: int
    states: tuple
    init: array
    update: array
    next_move: list
    names: tuple = field(default=(), compare=False, repr=False)

    @classmethod
    def from_tables(
        cls, owner_player: int, n: int, states, init, update, next_move, names: tuple = ()
    ) -> "FiniteStateStrategy":
        """The strategy on ``n`` vertices whose labelled tables are given as
        iterables of (key, value) pairs: ``init`` of (vertex, label),
        ``update`` of ((label, vertex), label) and ``next_move`` of
        ((vertex, label), move).  Every label is one of ``states``, and an
        entry naming a vertex outside ``0..n-1`` raises ValueError."""
        states = tuple(states)
        number = {m: i for i, m in enumerate(states)}
        outside = f"strategy entry {{!r}} names a vertex outside 0..{n - 1}"
        init_table = array("i", [-1]) * n
        for v, m in init:
            if not 0 <= v < n:
                raise ValueError(outside.format((v, m)))
            init_table[v] = number[m]
        update_table = array("i", [-1]) * (len(states) * n)
        for (m, v), target in update:
            if not 0 <= v < n:
                raise ValueError(outside.format(((m, v), target)))
            update_table[number[m] * n + v] = number[target]
        columns: list = [None] * n
        shared: dict = {}  # one tuple object for equal moves
        for (v, m), move in next_move:
            if not 0 <= v < n:
                raise ValueError(outside.format(((v, m), move)))
            columns[v] = columns[v] or [None] * len(states)
            columns[v][number[m]] = shared.setdefault(move, move)
        return cls(owner_player, states, init_table, update_table, columns, names)

    def check_arena(self, arena: Arena) -> None:
        """Raise ValueError unless the strategy is one on ``arena``'s vertices."""
        if len(self.init) != arena.n:
            raise ValueError(f"strategy is for {len(self.init)} vertices, the arena has {arena.n}")

    def table_entries(self) -> tuple:
        """Lazy iterators over the defined entries, on state numbers, in
        ``from_tables``' shapes and in strategy-file order: ``init`` (vertex,
        state) by vertex, ``update`` ((state, vertex), state) by state, then
        vertex, and the moves ((vertex, state), move) by vertex, then state."""
        n = len(self.init)
        init = ((v, i) for v, i in enumerate(self.init) if i >= 0)
        update = ((divmod(c, n), j) for c, j in enumerate(self.update) if j >= 0)
        cols = enumerate(self.next_move)
        moves = (((v, i), mv) for v, c in cols for i, mv in enumerate(c or ()) if mv is not None)
        return init, update, moves

    def _vertex(self, v: int):
        return self.names[v] if 0 <= v < len(self.names) else v

    def _no_update(self, m, v: int) -> ValueError:
        return ValueError(f"strategy update undefined for state {m!r}, vertex {self._vertex(v)}")

    def _no_move(self, v: int, m) -> ValueError:
        return ValueError(f"strategy has no move for vertex {self._vertex(v)} in state {m!r}")

    def _no_state(self, i: int) -> ValueError:
        return ValueError(f"strategy has no state number {i}")

    @cached_property
    def _number(self) -> dict:
        """Each label's state number, built for the first label reader."""
        return {m: i for i, m in enumerate(self.states)}

    def init_of(self, v: int) -> int:
        i = self.init[v] if 0 <= v < len(self.init) else -1
        if i < 0:
            raise ValueError(f"strategy has no initial state for vertex {self._vertex(v)}")
        return i

    def step_of(self, i: int, v: int) -> int:
        if not 0 <= i < len(self.states):
            raise self._no_state(i)
        n = len(self.init)
        j = self.update[i * n + v] if 0 <= v < n else -1
        if j < 0:
            raise self._no_update(self.states[i], v)
        return j

    def moves_of(self, v: int, i: int) -> tuple:
        if not 0 <= i < len(self.states):
            raise self._no_state(i)
        col = self.next_move[v] if 0 <= v < len(self.init) else None
        move = None if col is None else col[i]
        if move is None:
            raise self._no_move(v, self.states[i])
        return move

    def initial(self, v: int):
        return self.states[self.init_of(v)]

    def step(self, m, v: int):
        i = self._number.get(m)
        if i is None:
            raise self._no_update(m, v)
        return self.states[self.step_of(i, v)]

    def moves(self, v: int, m) -> tuple:
        i = self._number.get(m)
        if i is None:
            raise self._no_move(v, m)
        return self.moves_of(v, i)


@dataclass
class MullerSolution:
    w0: int
    w1: int
    strategy_p0: FiniteStateStrategy
    strategy_p1: FiniteStateStrategy


def _reachable_under(red: SafetyReduction, sol: SafetySolution) -> list:
    """Classes reachable from the embedded winning vertices when quotient
    Player 0 follows the positional safety strategy and Player 1 moves
    freely."""
    quotient = red.game.arena
    flat, start, owner = quotient.succ.flat, quotient.succ.start, quotient.owner
    search = Search(iter_bits(sol.w0 & red.base_arena.full_mask), red.n_classes)
    for i, c in search:
        for t in (sol.strategy0[c],) if owner[c] == 0 else flat[start[c] : start[c + 1]]:
            search.add(t, i)
    return sorted(search.keys)


def build_antichain_strategy(red: SafetyReduction, sol: SafetySolution) -> FiniteStateStrategy:
    """The finite-state winning strategy whose memory states are the maximal
    score classes reachable under the positional safety strategy.

    Memory updates over-approximate the true class of the play: they jump to
    a maximal class above it, ties broken by lowest class index.  BOTTOM
    absorbs every situation that cannot occur in consistent play.
    """
    reachable = _reachable_under(red, sol)
    keys, kernel = red.keys, red.kernel

    # maximal elements, per last vertex: sweeping in descending rank order
    # guarantees that anything above the current element was seen before it
    by_last: dict = {}
    for c in reachable:
        by_last.setdefault(red.last(c), []).append(c)

    maximal_by_last: dict = {}
    for last, group in by_last.items():
        maxima: list = []
        for c in sorted(group, key=lambda c: kernel.rank(keys[c]), reverse=True):
            key = keys[c]
            if not any(sheet_le(kernel, key, keys[m]) for m in maxima):
                maxima.append(c)
        maximal_by_last[last] = sorted(maxima)
    maximal = sorted(c for group in maximal_by_last.values() for c in group)

    number = _numbering(red, maximal)
    bottom = len(maximal)
    above_cache: dict = {}

    def above(cls):
        """The state of the lowest-indexed maximal class dominating ``cls``
        (BOTTOM if none)."""
        hit = above_cache.get(cls)
        if hit is None:
            key = keys[cls]
            hit = bottom
            for r in maximal_by_last.get(red.last(cls), ()):
                if sheet_le(kernel, key, keys[r]):
                    hit = number[r]
                    break
            above_cache[cls] = hit
        return hit

    return _class_table(red, sol, maximal, above, every_move=False)


def build_permissive_strategy(red: SafetyReduction, sol: SafetySolution) -> FiniteStateStrategy:
    """The most general multi-strategy bounding the opponent's scores: its
    memory is the full winning region of the quotient and it allows exactly
    the moves whose class stays in that region."""
    if red.tracked_player != 1:
        raise ValueError("permissive strategies are built from the Player-1-tracking reduction")
    classes = [c for c in range(red.n_classes) if sol.w0 & bit(c)]
    return _class_table(red, sol, classes, _numbering(red, classes).__getitem__, every_move=True)


def _numbering(red: SafetyReduction, memory: list) -> array:
    """Each class's state number: its position in ``memory``, and
    ``len(memory)``, BOTTOM's number, for every other class."""
    number = array("i", [len(memory)]) * red.n_classes
    for i, c in enumerate(memory):
        number[c] = i
    return number


def _class_table(
    red: SafetyReduction, sol: SafetySolution, memory: list, lift, every_move: bool
) -> FiniteStateStrategy:
    """The strategy whose memory states are the quotient classes ``memory``,
    numbered in that order, plus BOTTOM, numbered last.

    From state ``m``, vertex ``v`` follows the quotient edge of ``m``
    labelled ``v`` and ``lift`` maps the class it reaches to a state
    number; without such an edge, or along an edge into the sink, the
    update is BOTTOM.  At the last vertex of ``m`` the owner may take every
    successor whose update is not BOTTOM (``every_move``) or only the first
    of them.  Where there is none, and at every other vertex, which
    consistent play never reaches in state ``m``, the table holds the first
    successor.
    """
    base = red.base_arena
    n = base.n
    bottom = len(memory)
    flat, start = red.game.arena.succ.flat, red.game.arena.succ.start
    sink, last = red.sink, red.last
    init = array("i", [lift(v) if sol.w0 & bit(v) else bottom for v in range(n)])
    update = array("i", [bottom]) * ((bottom + 1) * n)
    shared: dict = {}
    keep = lambda move: shared.setdefault(move, move)  # one tuple object for equal moves
    next_move = [
        [keep(base.succ[v][:1])] * (bottom + 1) if base.owner[v] == 0 else None for v in range(n)
    ]
    for i, c in enumerate(memory):
        row = i * n
        # an edge into the sink has no entry, so its update stays BOTTOM
        for t in flat[start[c] : start[c + 1]]:
            if t != sink:
                update[row + last(t)] = lift(t)
        v = last(c)
        if base.owner[v] == 0:
            allowed = tuple(u for u in base.succ[v] if update[row + u] != bottom)
            if allowed:
                next_move[v][i] = keep(allowed if every_move else allowed[:1])

    owner_player = 0 if red.tracked_player == 1 else 1
    return FiniteStateStrategy(owner_player, tuple(memory) + (BOTTOM,), init, update, next_move)


def solve_muller(
    arena: Arena, muller: MullerCondition, max_states: int = DEFAULT_MAX_STATES
) -> MullerSolution:
    """Winning regions and antichain strategies for both players, via one
    reduction per player (roles swapped for Player 1's side), in each of
    which vertex v is class v.  One side is finished, region and strategy,
    and its reduction dropped before the other is built."""
    sides = []
    for tracked in (1, 0):
        red = build_safety_game(arena, muller, tracked_player=tracked, max_states=max_states)
        sol = solve_safety(red.game)
        sides.append((sol.w0 & arena.full_mask, build_antichain_strategy(red, sol)))
        del red, sol
    (w0, strategy_p0), (w1, strategy_p1) = sides

    if w0 & w1 or (w0 | w1) != arena.full_mask:
        raise RuntimeError(
            "internal error: winning regions do not partition the vertex set "
            f"(w0={arena.set_str(w0)}, w1={arena.set_str(w1)}); determinacy guarantees they do"
        )
    return MullerSolution(w0=w0, w1=w1, strategy_p0=strategy_p0, strategy_p1=strategy_p1)


def verify_bounded_scores(
    arena: Arena,
    muller: MullerCondition,
    strat: FiniteStateStrategy,
    start: int,
    bound: int,
) -> tuple:
    """Model-check that no play consistent with ``strat`` lets the opposing
    player's scores exceed ``bound``, starting anywhere in the vertex mask
    ``start``.

    Explores the product of the restricted arena with score sheets capped at
    bound + 1, states (vertex, memory state number, sheet),
    breadth-first on a ``Search`` and returns (True, None) or (False,
    witness prefix): the first play prefix, in breadth-first order, whose
    last step takes a score past ``bound``.  The strategy must be one on
    the arena's vertices.  The product is capped at the search's default
    state count, beyond which SizeLimitError is raised.  A True verdict
    certifies that the strategy is winning from ``start``: bounded opponent
    scores force the infinity set into the owner's family.  Strategies for
    Player 1 are checked on the role-swapped game.  The call owns one
    ``CodeTable``, whose strings are the product's sheets, and drops it on
    return; a table over its code limit raises SizeLimitError too.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if start & ~arena.full_mask:
        raise ValueError("start vertices outside the arena")
    if strat.owner_player == 1:
        # Player 1's side: players exchanged, f0 the loops Player 0 loses
        arena, muller = arena.swap_roles(), MullerCondition(frozenset(f1_loops(arena, muller)))
    family = family_of(f1_loops(arena, muller))

    strat.check_arena(arena)
    moves_of, step_of = strat.moves_of, strat.step_of
    rows = tuple(arena.succ)  # each vertex's row, read once, not once a state
    table = CodeTable(family, arena.n, bound + 1)

    search = Search(
        (v, strat.init_of(v), table.encode(score_step(f, ZERO, v) for f in family))
        for v in iter_bits(start)
    )
    for i, (v, m, sheet) in search:
        succ = rows[v]
        for u in moves_of(v, m) if arena.owner[v] == 0 else succ:
            if u not in succ:
                raise ValueError(f"strategy proposes a non-edge {v} -> {u}")
            nxt = entries_step(sheet, u, table)
            j = step_of(m, u)
            if AT_CAP in nxt:
                return False, _path(search.parents, i, lambda p: search.keys[p][0]) + (u,)
            search.add((u, j, nxt), i)
    return True, None


def check_subsumption_bounded(
    arena: Arena,
    muller: MullerCondition,
    sigma: FiniteStateStrategy,
    sigma_prime: FiniteStateStrategy,
    start: int,
    depth: int,
) -> bool:
    """True iff every play prefix of length <= depth from ``start`` that is
    consistent with ``sigma`` is also consistent with ``sigma_prime``.

    ``sigma`` must bound the opponent's scores by 2 from ``start``; that is
    the precondition under which permissive strategies promise subsumption.
    The (vertex, state, state) triples are searched breadth-first on a
    ``Search``, past whose default state count SizeLimitError is raised.
    """
    if sigma.owner_player != sigma_prime.owner_player:
        raise ValueError("strategies must belong to the same player")
    if not 0 <= start < arena.n:
        raise ValueError(f"start vertex {start} is not a vertex of the arena")
    sigma.check_arena(arena)
    sigma_prime.check_arena(arena)
    ok, _ = verify_bounded_scores(arena, muller, sigma, bit(start), 2)
    if not ok:
        raise ValueError("candidate strategy does not bound the opponent's scores by 2")

    player = sigma.owner_player
    search = Search([(start, sigma.init_of(start), sigma_prime.init_of(start))])
    # the numbers below ``end`` are the prefixes of at most ``length`` vertices
    end, length = 1, 1
    for i, (v, m, mp) in search:
        if i == end:
            end, length = len(search.keys), length + 1
        if length >= depth:
            break
        if arena.owner[v] == player:
            allowed = set(sigma_prime.moves_of(v, mp))
            targets = sigma.moves_of(v, m)
            if any(u not in allowed for u in targets):
                return False
        else:
            targets = arena.succ[v]
        for u in targets:
            search.add((u, sigma.step_of(m, u), sigma_prime.step_of(mp, u)), i)
    return True


@dataclass
class StrategyProduct:
    """The reachable (vertex, memory) graph of plays consistent with a
    strategy; used to check that BOTTOM is never reached and for export."""

    arena: Arena
    nodes: tuple
    edges: tuple


def consistent_product(arena: Arena, strat: FiniteStateStrategy, start: int) -> StrategyProduct:
    if start & ~arena.full_mask:
        raise ValueError("start vertices outside the arena")
    strat.check_arena(arena)
    # searched on state numbers; the nodes are labelled at the end, and
    # each node's edges are in the order the strategy lists its moves
    search = Search([(v, strat.init_of(v)) for v in iter_bits(start)])
    edges = []
    for i, (v, m) in search:
        for u in strat.moves_of(v, m) if arena.owner[v] == strat.owner_player else arena.succ[v]:
            edges.append((i, search.add((u, strat.step_of(m, u)), i)))
    nodes = tuple((v, strat.states[m]) for v, m in search.keys)
    return StrategyProduct(arena, nodes, tuple((nodes[a], nodes[b]) for a, b in edges))
