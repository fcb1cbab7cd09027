import random

import pytest

from scoregames.arena import Arena, MullerCondition, iter_bits, mask_of
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.safety_framework import REJECT

from reference import Lasso


@pytest.fixture
def example4():
    """The three-vertex running example: Player 0 owns the middle vertex,
    both outer vertices have self-loops, and Player 0's family is
    {{0}, {2}, {0,1,2}}."""
    arena = Arena.build([1, 0, 1], [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
    muller = MullerCondition(frozenset({0b001, 0b100, 0b111}))
    return arena, muller


EXAMPLE4_GAME_TEXT = """\
# three vertices, self-loops on the outer ones
vertex 0 1
vertex 1 0
vertex 2 1
edge 0 0
edge 0 1
edge 1 0
edge 1 2
edge 2 1
edge 2 2
condition muller
f0 { 0 }
f0 { 2 }
f0 { 0 1 2 }
"""


def word(text: str) -> tuple:
    """Digit string to vertex index tuple, e.g. '1001' -> (1, 0, 0, 1)."""
    return tuple(int(ch) for ch in text)


def m(*vertices) -> int:
    return mask_of(vertices)


def random_lasso(arena: Arena, rng: random.Random) -> Lasso:
    """A random walk until a vertex repeats, split into stem and cycle."""
    v = rng.randrange(arena.n)
    walk = [v]
    seen = {v: 0}
    while True:
        v = rng.choice(arena.succ[v])
        if v in seen:
            i = seen[v]
            return Lasso(tuple(walk[:i]), tuple(walk[i:]))
        seen[v] = len(walk)
        walk.append(v)


def random_muller_game(seed: int, max_n: int = 5):
    n = 2 + seed % (max_n - 1)
    density = (0.3, 0.5, 0.7, 0.9)[(seed // 3) % 4]
    return random_game(GeneratorConfig(n=n, density=density, seed=seed, kind="muller"))


def alternating_strategy():
    """For the running example: two memory states remembering which outer
    vertex was visited last; from the middle vertex it alternates."""
    from scoregames.strategy import FiniteStateStrategy

    states = ("go0", "go2")
    init = {v: "go0" for v in range(3)}
    update = {}
    for s in states:
        update[s, 0] = "go2"
        update[s, 2] = "go0"
        update[s, 1] = s
    next_move = {(1, "go0"): (0,), (1, "go2"): (2,)}
    return FiniteStateStrategy.from_tables(
        0, 3, states, init.items(), update.items(), next_move.items()
    )


def strategy_keeps_reject_unreachable(arena, dfa, w0, strat):
    """True iff no play from ``w0`` consistent with the Player-0 monitor
    strategy ``strat`` reaches the monitor ``dfa``'s REJECT state."""
    stack = [(v, strat.initial(v)) for v in iter_bits(w0)]
    seen = set(stack)
    while stack:
        v, q = stack.pop()
        if q is REJECT:
            return False
        targets = strat.moves(v, q) if arena.owner[v] == 0 else arena.succ[v]
        for u in targets:
            child = (u, dfa.step(q, u))
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return True
