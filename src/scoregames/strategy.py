"""Finite-state strategies for Muller games.

Every strategy is a ``FiniteStateStrategy``.  The antichain strategy keeps
only the maximal score classes reachable under a fixed positional safety
strategy and makes one move; the permissive strategy keeps the whole
winning region of the quotient and allows every move that stays inside it.
One table routine builds both, and both are certified by an explicit
product search bounding the opponent's scores.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .arena import Arena, MullerCondition, bit, f1_loops, iter_bits, swap_roles
from .reduction import DEFAULT_MAX_STATES, SafetyReduction, Search, _path, build_safety_game
from .safety_solver import SafetySolution, solve_safety
from .scoring import entries_init, entries_step, entries_terminal, family_of, sheet_le


class _Bottom:
    """Absorbing junk memory state; unreachable under consistent play."""

    __slots__ = ()

    def __repr__(self):
        return "BOT"


BOTTOM = _Bottom()


@dataclass
class FiniteStateStrategy:
    """A memory structure (states, init, update) with a next-move table.

    ``init`` maps vertices to memory states, ``update`` is keyed by
    (state, vertex), and ``next_move`` by (vertex, state) for the vertices
    of ``owner_player``.  Every move is a non-empty tuple of successors: one
    for a deterministic strategy, several for a multi-strategy.  A missing
    entry raises ValueError, naming the vertex by ``names`` when given.
    """

    owner_player: int
    states: tuple
    init: dict
    update: dict
    next_move: dict
    names: tuple = field(default=(), compare=False, repr=False)

    def _vertex(self, v: int):
        return self.names[v] if self.names else v

    def initial(self, v: int):
        try:
            return self.init[v]
        except KeyError:
            raise ValueError(f"strategy has no initial state for vertex {self._vertex(v)}") from None

    def step(self, m, v: int):
        try:
            return self.update[m, v]
        except KeyError:
            raise ValueError(
                f"strategy update undefined for state {m!r}, vertex {self._vertex(v)}"
            ) from None

    def moves(self, v: int, m) -> tuple:
        try:
            return self.next_move[v, m]
        except KeyError:
            raise ValueError(
                f"strategy has no move for vertex {self._vertex(v)} in state {m!r}"
            ) from None


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
    search = Search(iter_bits(sol.w0 & red.base_arena.full_mask), red.n_classes)
    for i, c in search:
        for t in (sol.strategy0[c],) if quotient.owner[c] == 0 else quotient.succ[c]:
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
    sheets = {c: red.sheets[c] for c in reachable}

    # maximal elements, per last vertex: sweeping in descending score order
    # guarantees that anything above the current element was seen before it
    by_last: dict = {}
    for c in reachable:
        by_last.setdefault(sheets[c].last, []).append(c)

    def dominance_key(c):
        entries = sheets[c].entries
        return (
            sum(st[0] for st in entries),
            sum(st[1].bit_count() for st in entries),
        )

    maximal_by_last: dict = {}
    for last, group in by_last.items():
        maxima: list = []
        for c in sorted(group, key=dominance_key, reverse=True):
            sheet = sheets[c]
            if not any(sheet_le(red.family, sheet, sheets[m]) for m in maxima):
                maxima.append(c)
        maximal_by_last[last] = sorted(maxima)
    maximal = sorted(c for group in maximal_by_last.values() for c in group)

    above_cache: dict = {}

    def above(cls):
        """The lowest-indexed maximal class dominating ``cls`` (BOTTOM if none)."""
        if cls == red.sink:
            return BOTTOM
        hit = above_cache.get(cls)
        if hit is None:
            sheet = red.sheets[cls]
            hit = BOTTOM
            for r in maximal_by_last.get(sheet.last, ()):
                if sheet_le(red.family, sheet, sheets[r]):
                    hit = r
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
    winning = set(classes)
    return _class_table(
        red, sol, classes, lambda c: c if c in winning else BOTTOM, every_move=True
    )


def _class_table(
    red: SafetyReduction, sol: SafetySolution, memory: list, lift, every_move: bool
) -> FiniteStateStrategy:
    """The strategy whose memory states are the quotient classes ``memory``
    plus BOTTOM.

    From state ``m``, vertex ``v`` follows the quotient edge of ``m``
    labelled ``v`` and ``lift`` maps the class it reaches to a memory state
    or BOTTOM; without such an edge, or along an edge into the sink, the
    update is BOTTOM.  At the last vertex of ``m`` the owner may take every
    successor whose update is not BOTTOM (``every_move``) or only the first
    of them.  Where there is none, and at every other vertex, which
    consistent play never reaches in state ``m``, the table holds the first
    successor.
    """
    base = red.base_arena
    init = {v: lift(v) if sol.w0 & bit(v) else BOTTOM for v in range(base.n)}

    update = {}
    next_move = {}
    for m in memory:
        last = red.last(m)
        # an edge into the sink has no entry, so its update is BOTTOM too
        targets = red.labelled_row(m)
        for v in range(base.n):
            target = targets.get(v)
            update[m, v] = BOTTOM if target is None else lift(target)
        for v in range(base.n):
            if base.owner[v] != 0:
                continue
            allowed = ()
            if v == last:
                allowed = tuple(u for u in base.succ[v] if update[m, u] is not BOTTOM)
            next_move[v, m] = (allowed if every_move else allowed[:1]) or base.succ[v][:1]
    for v in range(base.n):
        update[BOTTOM, v] = BOTTOM
        if base.owner[v] == 0:
            next_move[v, BOTTOM] = base.succ[v][:1]

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
    bound + 1, states (vertex, memory state, score entries), breadth-first
    on a ``Search`` and returns (True, None) or (False, witness prefix): the
    first play prefix, in breadth-first order, whose last step takes a
    score past ``bound``.  The product is capped at the search's default
    state count, beyond which SizeLimitError is raised.  A True verdict
    certifies that the strategy is winning from ``start``: bounded opponent
    scores force the infinity set into the owner's family.  Strategies for
    Player 1 are checked on the role-swapped game.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if start & ~arena.full_mask:
        raise ValueError("start vertices outside the arena")
    if strat.owner_player == 1:
        arena, muller = swap_roles(arena, muller)
    family = family_of(f1_loops(arena, muller))
    cap = bound + 1

    search = Search((v, strat.initial(v), entries_init(family, v)) for v in iter_bits(start))
    for i, (v, m, entries) in search:
        targets = strat.moves(v, m) if arena.owner[v] == 0 else arena.succ[v]
        for u in targets:
            if u not in arena.succ[v]:
                raise ValueError(f"strategy proposes a non-edge {v} -> {u}")
            nxt_entries = entries_step(family, entries, u)
            child = (u, strat.step(m, u), nxt_entries)
            if entries_terminal(nxt_entries, cap):
                return False, _path(search.parents, i, lambda j: search.keys[j][0]) + (u,)
            search.add(child, i)
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
    ok, _ = verify_bounded_scores(arena, muller, sigma, bit(start), 2)
    if not ok:
        raise ValueError("candidate strategy does not bound the opponent's scores by 2")

    player = sigma.owner_player
    search = Search([(start, sigma.initial(start), sigma_prime.initial(start))])
    # the numbers below ``end`` are the prefixes of at most ``length`` vertices
    end, length = 1, 1
    for i, (v, m, mp) in search:
        if i == end:
            end, length = len(search.keys), length + 1
        if length >= depth:
            break
        if arena.owner[v] == player:
            allowed = set(sigma_prime.moves(v, mp))
            targets = sigma.moves(v, m)
            if any(u not in allowed for u in targets):
                return False
        else:
            targets = arena.succ[v]
        for u in targets:
            search.add((u, sigma.step(m, u), sigma_prime.step(mp, u)), i)
    return True


@dataclass
class StrategyProduct:
    """The reachable (vertex, memory) graph of plays consistent with a
    strategy; used to check that BOTTOM is never reached and for export."""

    arena: Arena
    nodes: tuple
    edges: tuple


def consistent_product(arena: Arena, strat: FiniteStateStrategy, start: int) -> StrategyProduct:
    # each node's edges in the order the strategy lists its moves
    search = Search([(v, strat.initial(v)) for v in iter_bits(start)])
    edges = []
    for i, node in search:
        v, m = node
        for u in strat.moves(v, m) if arena.owner[v] == strat.owner_player else arena.succ[v]:
            child = (u, strat.step(m, u))
            search.add(child, i)
            edges.append((node, child))
    return StrategyProduct(arena, tuple(search.keys), tuple(edges))
