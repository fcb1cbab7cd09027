"""Linear-time attractor-based solving of safety games.

Regions are kept as one flag byte per vertex while the attractor runs, so
marking or testing a vertex costs O(1) however large the arena is; the
public results are vertex bitmasks, converted once at the end.  The
predecessors are ``Arena.predecessors``' two int arrays, four bytes an
edge, instead of a list per vertex.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress

from .arena import Arena
from .reduction import SafetyGame

# flag bytes <-> the characters of a binary numeral, least significant first
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(mask: int, n: int) -> bytearray:
    digits = format(mask, "b").encode()[::-1].translate(_TO_FLAGS)
    return bytearray(digits[:n].ljust(n, b"\x00"))


def _mask(flags: bytearray) -> int:
    return int(flags.translate(_TO_DIGITS)[::-1] or b"0", 2)


def _attract(arena: Arena, player: int, flags: bytearray) -> array:
    """Grow ``flags`` in place from the target to its ``player`` attractor
    and return the positional strategy on the attracted vertices outside
    the target, indexed by vertex, -1 where it has no move.  Runs in
    O(V + E) using per-vertex out-degree counters."""
    start, sources = arena.predecessors()
    owner = arena.owner
    remaining = array("i", arena.succ.degrees())
    strategy = array("i", [-1]) * arena.n
    queue = array("i", compress(range(arena.n), flags))
    # queue grows while it is read, so reading it in order is the FIFO
    for u in queue:
        for w in sources[start[u] : start[u + 1]]:
            if flags[w]:
                continue
            if owner[w] == player:
                flags[w] = 1
                strategy[w] = u
                queue.append(w)
            else:
                remaining[w] -= 1
                if remaining[w] == 0:
                    flags[w] = 1
                    queue.append(w)
    return strategy


def attractor(arena: Arena, player: int, target: int) -> tuple:
    """The least set from which ``player`` can force a visit to ``target``,
    plus a positional strategy on the attracted vertices outside the target
    (an ``array('i')`` indexed by vertex, -1 where it has no move).
    """
    flags = _flags(target, arena.n)
    strategy = _attract(arena, player, flags)
    return _mask(flags), strategy


@dataclass
class SafetySolution:
    """Winning regions of a safety game with positional strategies.

    Both strategies are ``array('i')`` indexed by vertex, -1 where the
    player has no move.  ``strategy0`` picks, for each Player 0 vertex in
    its region, the lowest indexed successor that stays in the region.
    ``strategy1`` is the attractor strategy towards the unsafe vertices.
    """

    w0: int
    w1: int
    strategy0: array
    strategy1: array


def solve_safety(game: SafetyGame) -> SafetySolution:
    arena = game.arena
    lost = _flags(arena.full_mask & ~game.safe, arena.n)
    strategy1 = _attract(arena, 1, lost)
    strategy0 = array("i", [-1]) * arena.n
    flat, start, owner = arena.succ.flat, arena.succ.start, arena.owner
    for v in range(arena.n):
        if not lost[v] and owner[v] == 0:
            for u in flat[start[v] : start[v + 1]]:
                if not lost[u]:
                    strategy0[v] = u
                    break
    w1 = _mask(lost)
    return SafetySolution(arena.full_mask & ~w1, w1, strategy0, strategy1)
