"""Generic safety reductions: monitor DFAs over the vertex alphabet, product
safety games, and solving via the product.

A monitor recognizes a prefix-closed language L such that staying in L
forever wins for Player 0, and Player 0 can stay in L from her winning
region.  Monitors are given by transition callables so exponential state
spaces (seen-sets, score sheets) are only materialized where the product
reaches them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    Lasso,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    bit,
    f1_loops,
    mask_of,
)
from .reduction import DEFAULT_MAX_STATES, SafetyGame, Search, _ClassView
from .safety_solver import solve_safety
from .scoring import ZERO, entries_step, entries_terminal, family_of
from .strategy import FiniteStateStrategy


class _Reject:
    __slots__ = ()

    def __repr__(self):
        return "REJECT"


REJECT = _Reject()

_CLOSED = -1  # request-response: no open request for the pair


class MonitorDFA:
    """A deterministic automaton over the vertex alphabet with the absorbing
    reject state REJECT; every other state accepts."""

    def __init__(self, alphabet_size: int, start, step: Callable):
        self.alphabet_size = alphabet_size
        self.start = start
        self._step = step

    def step(self, q, v: int):
        if not 0 <= v < self.alphabet_size:
            raise ValueError(f"letter {v} outside the alphabet")
        if q is REJECT:
            return REJECT
        return self._step(q, v)

    def is_accepting(self, q) -> bool:
        return q is not REJECT

    def run(self, word: Sequence[int]):
        q = self.start
        for v in word:
            q = self.step(q, v)
        return q


def reachable_states(dfa: MonitorDFA, max_states: int = DEFAULT_MAX_STATES) -> tuple:
    """All states reachable from the start over the full alphabet, in
    breadth-first order."""
    search = Search([dfa.start], max_states)
    for i, q in search:
        for v in range(dfa.alphabet_size):
            search.add(dfa.step(q, v), i)
    return tuple(search.keys)


@dataclass
class ProductGame:
    """The arena unfolded against a monitor: positions are (vertex, state)
    pairs, the safe positions are those with an accepting state.  Position
    ``v`` is vertex ``v``'s seed (v, step(start, v)), so a product region
    masked with ``arena.full_mask`` is a region of the arena."""

    game: SafetyGame
    states: tuple


def product_game(
    arena: Arena, dfa: MonitorDFA, max_states: int = DEFAULT_MAX_STATES
) -> ProductGame:
    """The reachable part of the product, seeded with (v, step(start, v))
    for every vertex v; more than ``max_states`` positions raise
    SizeLimitError."""
    if dfa.alphabet_size < arena.n:
        raise ValueError("monitor alphabet does not cover the arena")

    rows = tuple(arena.succ)  # each vertex's row, read once, not once a position

    def expand(node):
        v, q = node
        return [(u, dfa.step(q, u)) for u in rows[v]]

    search = Search([(v, dfa.step(dfa.start, v)) for v in range(arena.n)], max_states)
    succ = search.table(expand)  # one key per arena successor
    states = tuple(search.keys)

    def name(i):
        v, q = states[i]
        return f"{arena.names[v]}|{q!r}"

    owner = tuple(arena.owner[v] for v, _ in states)
    safe = mask_of(i for i, (_, q) in enumerate(states) if dfa.is_accepting(q))
    return ProductGame(SafetyGame(Arena(_ClassView(len(states), name), owner, succ), safe), states)


def solve_via_safety(
    arena: Arena, condition: Condition, dfa: MonitorDFA, max_states: int = DEFAULT_MAX_STATES
) -> tuple:
    """Solve a safety-reducible game through its monitor: returns Player 0's
    winning region and a finite-state winning strategy whose memory is the
    monitor state space.  The product is capped at ``max_states`` positions.

    The strategy is read off the solved product.  Every play, from any
    vertex along any arena edge, stays on the product's positions, so the
    tables hold exactly those pairs: ``update`` the product edges and
    ``next_move`` the Player-0 positions, where the product's positional
    strategy moves inside its winning region and the first successor is
    taken elsewhere.  The memory states are the product's own state
    objects, numbered in the order the product first reaches them.

    The caller is responsible for the monitor actually witnessing safety
    reducibility of ``condition``; the builders in this module do.
    """
    prod = product_game(arena, dfa, max_states)
    sol = solve_safety(prod.game)
    positions, target = prod.states, sol.strategy0
    rows = tuple(arena.succ)
    init = ((v, dfa.step(dfa.start, v)) for v in range(arena.n))
    update = (((q, v), dfa.step(q, v)) for u, q in positions for v in rows[u])
    next_move = (
        ((u, q), rows[u][:1] if target[pid] < 0 else (positions[target[pid]][0],))
        for pid, (u, q) in enumerate(positions)
        if arena.owner[u] == 0
    )
    memory = dict.fromkeys(q for _, q in positions)
    strat = FiniteStateStrategy.from_tables(0, arena.n, memory, init, update, next_move)
    return sol.w0 & arena.full_mask, strat


def buchi_monitor(arena: Arena, target: int) -> MonitorDFA:
    """Counts consecutive vertices outside ``target``; more than
    |V \\ target| of them in a row rejects."""
    k = arena.n - target.bit_count()

    def step(c, v):
        if target & bit(v):
            return 0
        return c + 1 if c + 1 <= k else REJECT

    return MonitorDFA(arena.n, 0, step)


def cobuchi_monitor(arena: Arena, persistent: int) -> MonitorDFA:
    """Tracks which vertices outside ``persistent`` have been seen; any
    revisit rejects."""
    bad = ~persistent

    def step(seen, v):
        b = bit(v)
        if bad & b:
            return REJECT if seen & b else seen | b
        return seen

    return MonitorDFA(arena.n, 0, step)


def parity_monitor(arena: Arena, priority: Sequence[int]) -> MonitorDFA:
    """One counter per odd priority c, counting its occurrences since the
    last smaller even priority; exceeding the number n_c of c-vertices
    rejects.  Smaller odd priorities only bump their own counter."""
    odds = sorted({p for p in priority if p % 2 == 1})
    pos = {p: i for i, p in enumerate(odds)}
    limit = {p: sum(1 for q in priority if q == p) for p in odds}

    def step(counters, v):
        p = priority[v]
        if p % 2 == 0:
            return tuple(
                0 if odds[i] > p else c for i, c in enumerate(counters)
            )
        c = counters[pos[p]] + 1
        if c > limit[p]:
            return REJECT
        return counters[: pos[p]] + (c,) + counters[pos[p] + 1 :]

    return MonitorDFA(arena.n, (0,) * len(odds), step)


def rr_monitor(arena: Arena, pairs: Sequence) -> MonitorDFA:
    """Ages the open request of each pair; an age beyond
    k = |V| * r * 2^(r+1) rejects.  A vertex that both answers and requests
    counts as answered first, then opens a fresh request; repeated requests
    while one is open do not stack."""
    r = len(pairs)
    k = arena.n * r * 2 ** (r + 1)

    def step(ages, v):
        b = bit(v)
        out = []
        for age, (req, resp) in zip(ages, pairs):
            if age != _CLOSED:
                age += 1
                if age > k:
                    return REJECT
            if resp & b:
                age = _CLOSED
            if req & b and age == _CLOSED:
                age = 0
            out.append(age)
        return tuple(out)

    return MonitorDFA(arena.n, (_CLOSED,) * r, step)


def muller_monitor(arena: Arena, muller: MullerCondition) -> MonitorDFA:
    """Score entries for Player 1's loop family; any score reaching 3
    rejects.  The product of the arena with this monitor is the score-class
    quotient."""
    family = family_of(f1_loops(arena, muller))

    def step(entries, v):
        nxt = entries_step(family, entries, v)
        return REJECT if entries_terminal(nxt, 3) else nxt

    return MonitorDFA(arena.n, (ZERO,) * len(family), step)


def monitor_for(arena: Arena, condition: Condition) -> MonitorDFA:
    """The stock monitor witnessing the safety reducibility of ``condition``."""
    if isinstance(condition, BuchiCondition):
        return buchi_monitor(arena, condition.target)
    if isinstance(condition, CoBuchiCondition):
        return cobuchi_monitor(arena, condition.persistent)
    if isinstance(condition, ParityCondition):
        return parity_monitor(arena, condition.priority)
    if isinstance(condition, RequestResponseCondition):
        return rr_monitor(arena, condition.pairs)
    if isinstance(condition, MullerCondition):
        return muller_monitor(arena, condition)
    raise TypeError(f"no monitor for {type(condition).__name__}")


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
