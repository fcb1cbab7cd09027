"""Reduction of a Muller game to a safety game over score-sheet classes.

The quotient arena is explored breadth-first from the single-vertex sheets;
every class whose tracked scores stay below the threshold is safe, and all
classes that reach the threshold are merged into one absorbing sink.
``Search`` is the package's one breadth-first engine: it also builds the
monitor products of ``safety_framework`` (the quotient is the arena times
the Muller monitor), and the strategy products and certificate checks of
``strategy``.  It numbers keys and nothing else: quotient names rebuild
their parent links on demand, and only the certificate check records them.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .arena import Arena, MullerCondition, SizeLimitError, Successors, View, f1_loops
from .scoring import PackedKernel, family_of

DEFAULT_MAX_STATES = 500_000


class Search:
    """A breadth-first search over hashable keys, numbered in discovery
    order with the seeds first (duplicates dropped).

    ``keys[i]`` is the key numbered ``i``; the key index is the only other
    thing kept a key.  ``add(key)`` returns a key's number, numbering it if
    it is new; numbering more than ``max_states`` keys raises
    SizeLimitError.  Iterating yields ``(number, key)`` in number order
    while ``keys`` grows, so a loop that expands each key it is given and
    ``add``s the successors is the FIFO queue: it may stop at any time, and
    a kept iterator resumes where it stopped.  ``table(expand)`` runs a
    fresh search to its end.
    """

    __slots__ = ("keys", "max_states", "_index")

    def __init__(self, seeds: Iterable, max_states: int = DEFAULT_MAX_STATES):
        self.keys: list = []
        self.max_states = max_states
        self._index: dict = {}
        for key in seeds:
            self.add(key)

    def add(self, key) -> int:
        i = self._index.get(key)
        if i is None:
            i = len(self.keys)
            if i >= self.max_states:
                raise SizeLimitError(f"state space exceeds the cap of {self.max_states} states")
            self._index[key] = i
            self.keys.append(key)
        return i

    def __iter__(self):
        # a list iterator reads the items appended after it was made
        return enumerate(self.keys)

    def table(self, expand: Callable) -> Successors:
        """Expand every key, ``expand(key)`` listing each of its successor
        keys once, and return each number's successor numbers, sorted: an
        ``Arena.succ`` table, each row written straight into its arrays.
        A key is looked up before it is ``add``ed, so only a new key costs
        a call.  The key index is dropped, so no key can be added
        afterwards."""
        get, add = self._index.get, self.add
        flat, start = array("i"), array("i", [0])
        for i, key in self:
            row = [j if (j := get(k)) is not None else add(k) for k in expand(key)]
            row.sort()
            flat.extend(row)
            start.append(len(flat))
        self._index = None
        return Successors(flat, start)


@dataclass(frozen=True)
class SafetyGame:
    """An arena plus the set of vertices Player 0 must never leave."""

    arena: Arena = field(repr=False)  # a quotient's repr builds every name
    safe: int = field(repr=False)  # an int as wide as the arena


@dataclass
class SafetyReduction:
    """The quotient safety game together with the embedding of the original
    vertices and the per-class keys.

    ``base_arena`` is the original arena with roles swapped when the tracked
    player is 0, so quotient Player 0 is always the player avoiding the sink.
    Class numbering is breadth-first discovery order and therefore
    reproducible.

    Stored per class: ``keys[c]``, the class's score sheet and last vertex
    packed into one int by ``kernel``, a ``scoring.PackedKernel`` (-1 for
    the sink), which also compares and ranks keys.  The quotient arena is
    the only successor table: a successor ``t`` of ``c`` other than the
    sink is the edge labelled ``last(t)``, and every other successor of the
    last vertex leads to the sink (whose only successor is itself); the
    strategy tables read a class's row this way.  Also stored:
    ``unsafe_class_count``, the number of distinct keys that reached the
    threshold.

    Derived on access: the quotient's vertex names (``[`` + the base vertex
    names along the first play prefix that reached the class + ``]``,
    joined as ``Arena.word_str`` joins them; the sink's is ``unsafe``).  An
    embedded vertex is its own prefix; any other class was first found by
    the lowest class whose row holds it, and the first name that needs
    these parent links reads them all off the successor table at once.
    """

    game: SafetyGame = field(repr=False)
    base_arena: Arena
    embed: tuple
    keys: list = field(repr=False)
    tracked_player: int
    threshold: int
    family: tuple
    sink: Optional[int]
    unsafe_class_count: int
    kernel: PackedKernel = field(repr=False)

    @property
    def n_classes(self) -> int:
        return self.game.arena.n

    def last(self, c: int) -> int:
        """The last vertex of class ``c`` (not the sink)."""
        return self.kernel.last(self.keys[c])


def tracked_family(arena: Arena, muller: MullerCondition, tracked_player: int) -> tuple:
    """The family whose scores the side tracking ``tracked_player`` bounds:
    ``f1_loops`` for Player 1 and ``f0`` for Player 0, as ``family_of`` sorts."""
    return family_of(f1_loops(arena, muller) if tracked_player == 1 else muller.f0)


def build_safety_game(
    arena: Arena,
    muller: MullerCondition,
    tracked_player: int = 1,
    threshold: int = 3,
    max_states: int = DEFAULT_MAX_STATES,
) -> SafetyReduction:
    """Construct the quotient safety game tracking one player's scores.

    With ``tracked_player=1`` the quotient is built on the game as given;
    with ``tracked_player=0`` the roles are swapped first, so the returned
    game is always solved from quotient Player 0's perspective.  Classes
    reaching ``threshold`` are merged into a single absorbing sink (which
    gets a self-loop so the quotient arena has no terminal vertex).
    """
    if tracked_player not in (0, 1):
        raise ValueError("tracked_player must be 0 or 1")
    if threshold not in (2, 3):
        raise ValueError("threshold must be 2 or 3")
    base = arena if tracked_player == 1 else arena.swap_roles()
    family = tracked_family(arena, muller, tracked_player)
    kernel = PackedKernel(family, base.n, threshold)
    last = kernel.last
    # each vertex's successor row as kernel lanes, made once per vertex
    lanes = [kernel.lanes(row) for row in base.succ]
    step_lanes = kernel.step_lanes
    unsafe: set = set()

    def expand(key):
        if key < 0:  # the sink's key; every other key is >= 0
            return (-1,)  # the sink is absorbing
        ys, crossed = step_lanes(key, lanes[last(key)])
        if crossed:
            # every crossing leads to the sink, listed once, where the first is
            unsafe.update([ys[i] for i in crossed])
            for i in reversed(crossed[1:]):
                del ys[i]
            ys[crossed[0]] = -1
        return ys

    # the seeds differ in their vertex, so vertex v is class v; each is
    # one step from the empty play's all-zero vector
    seeds, _ = step_lanes(0, kernel.lanes(range(base.n)))
    search = Search(seeds, max_states)
    succ = search.table(expand)
    keys, n = search.keys, base.n
    sink = keys.index(-1) if -1 in keys else None
    parents = array("i")  # filled by the first name past the embedded vertices

    # the closure holds no reference back to the reduction, so a reduction
    # in no cycle is freed as soon as its last reference goes
    def name(c):
        if c == sink:
            return "unsafe"
        if c >= n and not parents:
            parents[:] = array("i", [-1]) * len(keys)
            for i, t in zip(succ.sources(), succ.flat):
                if parents[t] < 0:
                    parents[t] = i
        word = []
        while c >= n:
            word.append(last(keys[c]))
            c = parents[c]
        word.append(c)  # vertex v is class v
        return "[" + base.word_str(word[::-1]) + "]"

    # one byte a class; the sink is absorbing, so its owner never matters
    owner = bytes(1 if key < 0 else base.owner[last(key)] for key in keys)
    quotient = Arena(View(len(keys), name), owner, succ)
    safe = (1 << len(keys)) - 1
    if sink is not None:
        safe &= ~(1 << sink)
    return SafetyReduction(
        game=SafetyGame(quotient, safe),
        base_arena=base,
        embed=tuple(range(base.n)),
        keys=keys,
        tracked_player=tracked_player,
        threshold=threshold,
        family=family,
        sink=sink,
        unsafe_class_count=len(unsafe),
        kernel=kernel,
    )
