"""Independent correctness oracles: a recursive Muller-game solver, encodings
of infinity-set-determined conditions into Muller form, and a seeded random
game generator.

The solver here deliberately shares nothing with the score-based pipeline
beyond the arena model; it works by explicit loop-membership queries and
attractor peeling, trading efficiency for independence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    MullerCondition,
    ParityCondition,
    RANDOM_VERTEX_LIMIT,
    RequestResponseCondition,
    SizeLimitError,
    bit,
    check_loop_limit,
    enumerate_loops,
    iter_bits,
    mask_of,
)

ORACLE_VERTEX_LIMIT = 12
GAME_KINDS = ("muller", "buchi", "cobuchi", "parity", "rr")  # what random_game draws


def _attr(arena: Arena, universe: int, player: int, target: int) -> int:
    """Attractor within the subarena induced by ``universe``; simple fixpoint
    iteration, adequate at oracle scale."""
    attr = target & universe
    changed = True
    while changed:
        changed = False
        for v in iter_bits(universe & ~attr):
            succs = [u for u in arena.succ[v] if universe & bit(u)]
            if arena.owner[v] == player:
                hit = any(attr & bit(u) for u in succs)
            else:
                hit = all(attr & bit(u) for u in succs)
            if hit:
                attr |= bit(v)
                changed = True
    return attr


def zielonka(arena: Arena, muller: MullerCondition) -> tuple:
    """Winning regions of a Muller game by the classical recursion.

    The player favoured by the full vertex set wins everywhere unless the
    opponent wins somewhere in a trap confined to one of the maximal sets of
    the opponent's family; in that case the opponent's attractor is peeled
    off and the rest is solved recursively.  Sets that are not loops can
    never be infinity sets and are treated as Player 1's.
    """
    if arena.n > ORACLE_VERTEX_LIMIT:
        raise SizeLimitError(f"oracle limited to {ORACLE_VERTEX_LIMIT} vertices, got {arena.n}")
    f0 = muller.f0

    def classify(s: int) -> int:
        return 0 if s in f0 else 1

    def solve(universe: int) -> tuple:
        if universe == 0:
            return 0, 0
        i = classify(universe)
        o = 1 - i
        # maximal proper subsets of the universe belonging to the opponent
        subs = []
        s = (universe - 1) & universe
        while s:
            if classify(s) == o:
                subs.append(s)
            s = (s - 1) & universe
        maximal = [m for m in subs if not any(m != t and m & ~t == 0 for t in subs)]
        for m in sorted(maximal):
            trap = universe & ~_attr(arena, universe, i, universe & ~m)
            if trap == 0:
                continue
            regions = solve(trap)
            if regions[o]:
                peel = _attr(arena, universe, o, regions[o])
                rest = solve(universe & ~peel)
                if o == 0:
                    return rest[0] | peel, rest[1]
                return rest[0], rest[1] | peel
        return (universe, 0) if i == 0 else (0, universe)

    return solve(arena.full_mask)


def encode_as_muller(arena: Arena, condition: Condition) -> MullerCondition:
    """Express an infinity-set-determined condition as a loop partition."""
    if isinstance(condition, BuchiCondition):
        keep = lambda c: c & condition.target != 0
    elif isinstance(condition, CoBuchiCondition):
        keep = lambda c: c & ~condition.persistent == 0
    elif isinstance(condition, ParityCondition):
        keep = lambda c: min(condition.priority[v] for v in iter_bits(c)) % 2 == 0
    else:
        raise TypeError(
            f"{type(condition).__name__} is not determined by the infinity set alone"
        )
    return MullerCondition(frozenset(c for c in enumerate_loops(arena) if keep(c)))


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    density: float = 0.4
    owner_bias: float = 0.5
    seed: int = 0
    kind: str = "muller"


def random_game(cfg: GeneratorConfig) -> tuple:
    """A seeded, reproducible random game, refused before any draw if its
    kind is unknown, it has over ``RANDOM_VERTEX_LIMIT`` vertices, or it is
    Muller over the loop guard.  A vertex without successors gets a self-loop."""
    if cfg.kind not in GAME_KINDS:
        raise ValueError(f"unknown condition kind {cfg.kind!r}")
    if cfg.n > RANDOM_VERTEX_LIMIT:
        raise SizeLimitError(f"{cfg.n} random vertices exceed the guard of {RANDOM_VERTEX_LIMIT}")
    if cfg.kind == "muller":
        check_loop_limit(cfg.n)
    rng = random.Random(cfg.seed)
    owner = tuple(0 if rng.random() < cfg.owner_bias else 1 for _ in range(cfg.n))
    edges = []
    for u in range(cfg.n):
        for v in range(cfg.n):
            if rng.random() < cfg.density:
                edges.append((u, v))
    covered = {u for u, _ in edges}
    for u in range(cfg.n):
        if u not in covered:
            edges.append((u, u))
    arena = Arena.build(owner, edges)

    if cfg.kind == "muller":
        f0 = frozenset(c for c in enumerate_loops(arena) if rng.random() < 0.5)
        return arena, MullerCondition(f0)
    if cfg.kind == "buchi":
        return arena, BuchiCondition(_random_mask(rng, cfg.n))
    if cfg.kind == "cobuchi":
        return arena, CoBuchiCondition(_random_mask(rng, cfg.n))
    if cfg.kind == "parity":
        return arena, ParityCondition(tuple(rng.randrange(2 * cfg.n) for _ in range(cfg.n)))
    r = 1 + rng.randrange(2)
    pairs = tuple((_random_mask(rng, cfg.n), _random_mask(rng, cfg.n)) for _ in range(r))
    return arena, RequestResponseCondition(pairs)


def _random_mask(rng: random.Random, n: int) -> int:
    return mask_of(v for v in range(n) if rng.random() < 0.5)
