"""Linear-time attractor-based solving of safety games."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .arena import Arena, bit, iter_bits
from .reduction import SafetyGame


def attractor(arena: Arena, player: int, target: int) -> tuple:
    """The least set from which ``player`` can force a visit to ``target``,
    plus a positional strategy on the attracted vertices outside the target.

    Runs in O(V + E) using per-vertex out-degree counters.
    """
    pred = arena.predecessors()
    remaining = [len(s) for s in arena.succ]
    attr = target
    strategy: dict = {}
    queue = deque(iter_bits(target))
    while queue:
        u = queue.popleft()
        for w in pred[u]:
            if attr & bit(w):
                continue
            if arena.owner[w] == player:
                attr |= bit(w)
                strategy[w] = u
                queue.append(w)
            else:
                remaining[w] -= 1
                if remaining[w] == 0:
                    attr |= bit(w)
                    queue.append(w)
    return attr, strategy


@dataclass
class SafetySolution:
    """Winning regions of a safety game with positional strategies.

    ``strategy0`` picks, for each Player 0 vertex in its region, the lowest
    indexed successor that stays in the region.  ``strategy1`` is the
    attractor strategy towards the unsafe vertices.
    """

    w0: int
    w1: int
    strategy0: dict
    strategy1: dict


def solve_safety(game: SafetyGame) -> SafetySolution:
    arena = game.arena
    unsafe = arena.full_mask & ~game.safe
    w1, strategy1 = attractor(arena, 1, unsafe)
    w0 = arena.full_mask & ~w1
    strategy0: dict = {}
    for v in iter_bits(w0):
        if arena.owner[v] == 0:
            strategy0[v] = next(u for u in arena.succ[v] if w0 & bit(u))
    return SafetySolution(w0, w1, strategy0, strategy1)
