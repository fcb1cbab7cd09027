"""Reduction of a Muller game to a safety game over score-sheet classes.

The quotient arena is explored breadth-first from the single-vertex sheets;
every class whose tracked scores stay below the threshold is safe, and all
classes that reach the threshold are merged into one absorbing sink.
``explore`` is the package's one breadth-first engine: it also builds the
monitor products of ``safety_framework`` (the quotient is the arena times
the Muller monitor) and the strategy products of ``strategy``.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Iterable, Optional

from .arena import Arena, MullerCondition, SizeLimitError, Word, f1_loops, is_path
from .scoring import PackedKernel, ScoreSheet, family_of, lar_of, lar_update

DEFAULT_MAX_STATES = 500_000


def explore(seeds: Iterable, expand: Callable, max_states: int = DEFAULT_MAX_STATES) -> tuple:
    """Breadth-first search over hashable keys, numbered in discovery order
    with the seeds first.  ``expand(key)`` lists the successor keys of a key.

    Returns ``(keys, parents, succ)``: the key of each number, the number
    whose expansion first found each key (-1 for the seeds) and each
    number's successor numbers, sorted and distinct, so ``succ`` is an
    ``Arena.succ`` table.  The key-to-number index lives only while the
    search runs.  Finding a key beyond ``max_states`` raises SizeLimitError.
    """
    keys: list = []
    index: dict = {}
    parents: list = []

    def number(key, parent):
        i = index.get(key)
        if i is None:
            i = len(keys)
            if i >= max_states:
                raise SizeLimitError(f"state space exceeds the cap of {max_states} states")
            index[key] = i
            keys.append(key)
            parents.append(parent)
        return i

    for key in seeds:
        number(key, -1)
    succ = []
    # keys grows while it is read, so reading it in order is the FIFO queue
    for i, key in enumerate(keys):
        succ.append(tuple(sorted({number(k, i) for k in expand(key)})))
    del index  # freed before the table is copied into a tuple
    return keys, parents, tuple(succ)


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


def _path(keys: list, parents: list, c: int) -> Word:
    """The last vertices along the parent chain of class ``c``, oldest first."""
    out = []
    while c >= 0:
        out.append(keys[c][0])
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

    Stored per class: ``keys[c]``, the pair (last vertex, packed score
    vector) of ``scoring.PackedKernel`` (None for the sink), and
    ``parents[c]``, the class whose expansion found ``c`` (-1 for the
    embedded vertices).  The packed vector is one int in which tracked set i
    owns the field of n + 2 bits at offset i * (n + 2): its accumulator in
    the low n bits and its score in the next two.  The quotient arena is the
    only successor table: a successor ``t`` of ``c`` other than the sink is
    the edge labelled ``keys[t][0]``, and every other successor of the last
    vertex leads to the sink (whose only successor is itself).  Also stored:
    ``unsafe_class_count``, the number of distinct keys that reached the
    threshold, and ``_kernel``, which steps and decodes packed vectors.

    Derived on access, with the entries decoded from the packed vectors:
    the quotient's vertex names (``[`` + the base vertex names along
    ``rep_words[c]`` + ``]``, joined as ``Arena.word_str`` joins them; the
    sink's is ``unsafe``), ``sheets`` (the sink's is None,
    the latest appearance records come from the parent chain),
    ``rep_words`` (the first play prefix that reached each class; the
    sink's is the first prefix that crossed the threshold) and
    ``unsafe_sheets`` (one per distinct key that reached the threshold,
    with the record of the first class, in class order, that stepped into
    it).
    """

    game: SafetyGame
    base_arena: Arena
    embed: tuple
    keys: list
    parents: list
    tracked_player: int
    threshold: int
    family: tuple
    sink: Optional[int]
    unsafe_class_count: int
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
        first: dict = {}
        for c, targets in enumerate(self.game.arena.succ):
            if c != self.sink and self.sink in targets:
                for crossing in self._crossings(c):
                    first.setdefault(crossing, c)
        return tuple(
            ScoreSheet(v, self._kernel.entries(y), lar_update(self._lar(c), v))
            for (v, y), c in first.items()
        )

    def _crossings(self, c: int):
        """The successors ``v`` of class ``c``'s last vertex whose step
        reaches the threshold, each with the packed vector ``y`` it reaches,
        as (v, y) in successor order."""
        last, x = self.keys[c]
        for v in self.base_arena.succ[last]:
            y = self._kernel.step(x, v)
            if self._kernel.reaches(y, self.threshold):
                yield v, y

    def _lar(self, c: int) -> tuple:
        """The latest appearance record of ``rep_words[c]``, newest last."""
        return lar_of(_path(self.keys, self.parents, c))

    def _sheet(self, c: int) -> Optional[ScoreSheet]:
        if c == self.sink:
            return None
        last, x = self.keys[c]
        return ScoreSheet(last, self._kernel.entries(x), self._lar(c))

    def _rep_word(self, c: int) -> Word:
        if c == self.sink:
            parent = self.parents[c]
            crossing, _ = next(self._crossings(parent))
            return _path(self.keys, self.parents, parent) + (crossing,)
        return _path(self.keys, self.parents, c)

    def step_class(self, c: int, v: int) -> int:
        """The quotient successor of class ``c`` under vertex ``v``."""
        if 0 <= c < self.n_classes and c != self.sink:
            if v in self.base_arena.succ[self.keys[c][0]]:
                for t in self.game.arena.succ[c]:
                    if t != self.sink and self.keys[t][0] == v:
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

    kernel = PackedKernel(family, base.n)
    step, reaches = kernel.step, kernel.reaches
    unsafe: set = set()

    def expand(key):
        if key is None:
            return (None,)  # the sink is absorbing
        last, x = key
        out = []
        for v in base.succ[last]:
            y = step(x, v)
            if reaches(y, threshold):
                unsafe.add((v, y))
                out.append(None)
            else:
                out.append((v, y))
        return out

    # the seeds differ in their vertex, so vertex v is class v
    keys, parents, succ = explore([(v, step(0, v)) for v in range(base.n)], expand, max_states)
    sink = next((c for c, key in enumerate(keys) if key is None), None)

    def name(c):
        if c == sink:
            return "unsafe"
        return "[" + base.word_str(_path(keys, parents, c)) + "]"

    # the sink is absorbing, so its owner never matters
    owner = tuple(1 if key is None else base.owner[key[0]] for key in keys)
    quotient = Arena(_ClassView(len(keys), name), owner, succ)
    safe = (1 << len(keys)) - 1
    if sink is not None:
        safe &= ~(1 << sink)
    return SafetyReduction(
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
        _kernel=kernel,
    )
