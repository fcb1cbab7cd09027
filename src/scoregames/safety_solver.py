"""Linear-time attractor-based solving of safety games.

Regions are kept as one flag byte per vertex while the attractor runs, so
marking or testing a vertex costs O(1) however large the arena is; the
public results are vertex bitmasks, converted once at the end.  The
predecessors are ``Arena.predecessors``' two int arrays, four bytes an
edge.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
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


def _attract(arena: Arena, player: int, flags: bytearray) -> None:
    """Grow ``flags`` in place from the target to its ``player`` attractor.
    Runs in O(V + E) using per-vertex out-degree counters."""
    pred = arena.predecessors()
    start, sources = pred.start, pred.flat
    owner = arena.owner
    remaining = array("i", arena.succ.degrees())
    queue = array("i", compress(range(arena.n), flags))
    # queue grows while it is read, so reading it in order is the FIFO
    for u in queue:
        for w in sources[start[u] : start[u + 1]]:
            if flags[w]:
                continue
            if owner[w] == player:
                flags[w] = 1
                queue.append(w)
            else:
                remaining[w] -= 1
                if remaining[w] == 0:
                    flags[w] = 1
                    queue.append(w)


def attractor(arena: Arena, player: int, target: int) -> int:
    """The least set from which ``player`` can force a visit to ``target``."""
    if target < 0 or target >> arena.n:
        raise ValueError("target vertices outside the arena")
    flags = _flags(target, arena.n)
    _attract(arena, player, flags)
    return _mask(flags)


@dataclass
class SafetySolution:
    """Player 0's winning region and positional strategy in a safety game.

    ``strategy0`` is an ``array('i')`` indexed by vertex, -1 where Player 0
    has no move: for each Player 0 vertex in ``w0``, it picks the lowest
    indexed successor that stays in ``w0``.  Player 1 wins exactly the
    other vertices, ``arena.full_mask & ~w0``.
    """

    w0: int = field(repr=False)  # both are as wide as the arena
    strategy0: array = field(repr=False)


def solve_safety(game: SafetyGame) -> SafetySolution:
    """Player 0's winning region and positional strategy in ``game``: the
    vertices outside Player 1's attractor of the unsafe ones, and a move
    that stays among them."""
    arena = game.arena
    lost = _flags(arena.full_mask & ~game.safe, arena.n)
    _attract(arena, 1, lost)
    strategy0 = array("i", [-1]) * arena.n
    flat, start, owner = arena.succ.flat, arena.succ.start, arena.owner
    for v in range(arena.n):
        if not lost[v] and owner[v] == 0:
            for u in flat[start[v] : start[v + 1]]:
                if not lost[u]:
                    strategy0[v] = u
                    break
    return SafetySolution(arena.full_mask & ~_mask(lost), strategy0)
