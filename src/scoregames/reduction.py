"""Reduction of a Muller game to a safety game over score-sheet classes.

The quotient arena is explored breadth-first from the single-vertex sheets;
every class whose tracked scores stay below the threshold is safe, and all
classes that reach the threshold are merged into one absorbing sink.
``Search`` is the package's one breadth-first engine: it also builds the
monitor products of ``safety_framework`` (the quotient is the arena times
the Muller monitor), and the strategy products and certificate checks of
``strategy``.
"""
from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Iterable, Optional

from .arena import Arena, MullerCondition, SizeLimitError, Successors, Word, f1_loops, is_path
from .scoring import PackedKernel, ScoreSheet, family_of

DEFAULT_MAX_STATES = 500_000


class Search:
    """A breadth-first search over hashable keys, numbered in discovery
    order with the seeds first (duplicates dropped).

    ``keys[i]`` is the key numbered ``i`` and ``parents[i]`` the number
    whose expansion first found it (-1 for the seeds); ``parents`` is an
    ``array('i')``, four bytes a key.  ``add(key, parent)``
    returns a key's number, numbering it if it is new; numbering more than
    ``max_states`` keys raises SizeLimitError.  Iterating yields
    ``(number, key)`` in number order while ``keys`` grows, so a loop that
    expands each key it is given and ``add``s the successors is the FIFO
    queue: it may stop at any time, and a kept iterator resumes where it
    stopped.  ``table(expand)`` runs a fresh search to its end.
    """

    __slots__ = ("keys", "parents", "max_states", "_index")

    def __init__(self, seeds: Iterable, max_states: int = DEFAULT_MAX_STATES):
        self.keys: list = []
        self.parents = array("i")
        self.max_states = max_states
        self._index: dict = {}
        for key in seeds:
            self.add(key, -1)

    def add(self, key, parent: int) -> int:
        i = self._index.get(key)
        if i is None:
            i = len(self.keys)
            if i >= self.max_states:
                raise SizeLimitError(f"state space exceeds the cap of {self.max_states} states")
            self._index[key] = i
            self.keys.append(key)
            self.parents.append(parent)
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
            row = [j if (j := get(k)) is not None else add(k, i) for k in expand(key)]
            row.sort()
            flat.extend(row)
            start.append(len(flat))
        self._index = None
        return Successors(flat, start)


@dataclass(frozen=True)
class SafetyGame:
    """An arena plus the set of vertices Player 0 must never leave."""

    arena: Arena
    safe: int


class _ClassView(Sequence):
    """A read-only sequence of ``n`` items, item ``i`` built on access as
    ``item(i)``: per-class data of a reduction and the vertex names of
    quotient and product arenas."""

    def __init__(self, n: int, item: Callable):
        self._n = n
        self._item = item

    def __len__(self):
        return self._n

    def __getitem__(self, c):
        if isinstance(c, slice):
            return tuple(map(self._item, range(self._n)[c]))
        return self._item(range(self._n)[c])

    def __eq__(self, other):
        return isinstance(other, (tuple, _ClassView)) and tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))


def _path(parents: Sequence, c: int, vertex: Callable) -> Word:
    """``vertex(i)`` for each number ``i`` along the parent chain of ``c``,
    oldest first: the play prefix that first reached ``c`` when ``vertex``
    gives the vertex a search key ends in."""
    out = []
    while c >= 0:
        out.append(vertex(c))
        c = parents[c]
    return tuple(reversed(out))


@dataclass
class SafetyReduction:
    """The quotient safety game together with the embedding of the original
    vertices and the per-class score sheets.

    ``base_arena`` is the original arena with roles swapped when the tracked
    player is 0, so quotient Player 0 is always the player avoiding the sink.
    Class numbering is breadth-first discovery order and therefore
    reproducible.

    Stored per class: ``keys[c]``, one int ``x | last << top`` that packs
    the class's score vector ``x`` of ``scoring.PackedKernel`` into its low
    ``top`` bits and its last vertex above them (-1 for the sink), and
    ``parents[c]``, the class whose expansion found ``c`` (-1 for the
    embedded vertices), in the search's ``array('i')``.  ``last(c)`` shifts
    the last vertex out of a key; the kernel reads only the vector's bits,
    so it steps a key in place.  The packed vector is one int in which
    tracked set i owns the field of n + 2 bits at offset i * (n + 2): its
    accumulator in the low n bits and its score in the next two, so
    ``top`` is ``len(family) * (n + 2)``.  The quotient arena is the only
    successor table: a successor ``t`` of ``c`` other than the sink is the
    edge labelled ``last(t)``, and every other successor of the last vertex
    leads to the sink (whose only successor is itself); ``step_class``
    and the strategy tables read a class's row this way.  Also stored: ``unsafe_class_count``, the
    number of distinct keys that reached the threshold, and ``_kernel``,
    which steps and decodes the keys.

    Derived on access, with the entries decoded from the packed vectors:
    the quotient's vertex names (``[`` + the base vertex names along
    ``rep_words[c]`` + ``]``, joined as ``Arena.word_str`` joins them; the
    sink's is ``unsafe``), ``sheets`` (the sink's is None), ``rep_words``
    (the first play prefix that reached each class, from the parent chain;
    the sink's is the first prefix that crossed the threshold) and
    ``unsafe_sheets`` (one per distinct key that reached the threshold, in
    the order in which the classes, taken by number, first step into them).
    """

    game: SafetyGame
    base_arena: Arena
    embed: tuple
    keys: list
    parents: array
    tracked_player: int
    threshold: int
    family: tuple
    sink: Optional[int]
    unsafe_class_count: int
    top: int
    _kernel: PackedKernel = field(repr=False)

    @property
    def n_classes(self) -> int:
        return self.game.arena.n

    @property
    def sheets(self) -> Sequence:
        return _ClassView(self.n_classes, self._sheet)

    @property
    def rep_words(self) -> Sequence:
        return _ClassView(self.n_classes, self._rep_word)

    @property
    def unsafe_sheets(self) -> tuple:
        flat, start = self.game.arena.succ.flat, self.game.arena.succ.start
        crossings = (
            crossing
            for c in range(self.n_classes)
            if c != self.sink and self.sink in flat[start[c] : start[c + 1]]
            for crossing in self._crossings(c)
        )
        return tuple(ScoreSheet(v, self._kernel.entries(y)) for v, y in dict.fromkeys(crossings))

    def last(self, c: int) -> int:
        """The last vertex of class ``c`` (not the sink)."""
        return self.keys[c] >> self.top

    def _crossings(self, c: int) -> list:
        """The successors ``v`` of class ``c``'s last vertex whose step
        reaches the threshold, each with the packed vector ``y`` it reaches,
        as (v, y) in successor order."""
        vs = self.base_arena.succ[self.last(c)]
        ys, crossed = self._kernel.step_row(self.keys[c], vs, self.threshold)
        return [(vs[i], ys[i]) for i in crossed]

    def _word(self, c: int) -> Word:
        """The last vertices along the parent chain of class ``c``."""
        return _path(self.parents, c, self.last)

    def _sheet(self, c: int) -> Optional[ScoreSheet]:
        if c == self.sink:
            return None
        return ScoreSheet(self.last(c), self._kernel.entries(self.keys[c]))

    def _rep_word(self, c: int) -> Word:
        if c == self.sink:
            parent = self.parents[c]
            crossing, _ = self._crossings(parent)[0]
            return self._word(parent) + (crossing,)
        return self._word(c)

    def step_class(self, c: int, v: int) -> int:
        """The quotient successor of class ``c`` under vertex ``v``: the
        successor other than the sink whose last vertex is ``v``, or else
        the sink."""
        if 0 <= c < self.n_classes and c != self.sink:
            if v in self.base_arena.succ[self.last(c)]:
                flat, start = self.game.arena.succ.flat, self.game.arena.succ.start
                for t in flat[start[c] : start[c + 1]]:
                    if t != self.sink and self.last(t) == v:
                        return t
                return self.sink
        raise ValueError(f"no quotient edge from class {c} labelled {v}")

    def class_of(self, word: Word) -> int:
        """The class of a play prefix whose proper prefixes stay below the
        threshold; the sink if the last letter crosses it."""
        if not word:
            raise ValueError("empty play prefix")
        if not is_path(self.base_arena, word):
            raise ValueError("word is not a path of the arena")
        c = word[0]  # vertex v is class v
        for v in word[1:]:
            if c == self.sink:
                raise ValueError("a proper prefix already reached the threshold")
            c = self.step_class(c, v)
        return c


def lar_sum_bound(n: int) -> int:
    """Upper bound on the class count: the number of latest appearance
    records times the score/accumulator combinations per record, plus the
    sink.  The coarser (n!)^3 form only dominates this sum for n >= 4."""
    return sum(comb(n, k) * factorial(k) * 2**k * factorial(k) for k in range(1, n + 1)) + 1


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
    if tracked_player == 1:
        base = arena
        family = family_of(f1_loops(arena, muller))
    else:
        base = arena.swap_roles()
        family = family_of(muller.f0)

    # a key is x | last << top, so every key but the sink's (-1) is >= 0;
    # the kernel reads only the vector's bits, so it steps a key in place
    top = len(family) * (base.n + 2)
    kernel = PackedKernel(family, base.n)
    # each vertex's successor row as kernel lanes, tagged with the
    # successor, made once instead of once per class
    lanes = [kernel.lanes(row, [v << top for v in row]) for row in base.succ]
    step_lanes = kernel.step_lanes
    unsafe: set = set()

    def expand(key):
        if key < 0:
            return (-1,)  # the sink is absorbing
        ys, crossed = step_lanes(key, lanes[key >> top], threshold)
        if crossed:
            # every crossing leads to the sink, listed once, where the first is
            unsafe.update([ys[i] for i in crossed])
            for i in reversed(crossed[1:]):
                del ys[i]
            ys[crossed[0]] = -1
        return ys

    # the seeds differ in their vertex, so vertex v is class v
    search = Search([kernel.step(0, v) | v << top for v in range(base.n)], max_states)
    succ = search.table(expand)
    keys, parents = search.keys, search.parents
    sink = keys.index(-1) if -1 in keys else None

    # SafetyReduction._word, without a reference back to the reduction:
    # a reduction in no cycle is freed as soon as its last reference goes
    def name(c):
        if c == sink:
            return "unsafe"
        return "[" + base.word_str(_path(parents, c, lambda i: keys[i] >> top)) + "]"

    # the sink is absorbing, so its owner never matters
    owner = tuple(1 if key < 0 else base.owner[key >> top] for key in keys)
    quotient = Arena(_ClassView(len(keys), name), owner, succ)
    safe = (1 << len(keys)) - 1
    if sink is not None:
        safe &= ~(1 << sink)
    reduction = SafetyReduction(
        game=SafetyGame(quotient, safe),
        base_arena=base,
        embed=tuple(range(base.n)),
        keys=keys,
        parents=parents,
        tracked_player=tracked_player,
        threshold=threshold,
        family=family,
        sink=sink,
        unsafe_class_count=len(unsafe),
        top=top,
        _kernel=kernel,
    )
    return reduction
