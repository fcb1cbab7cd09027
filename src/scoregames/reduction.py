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
from .scoring import PackedKernel, ScoreSheet, family_of, lar_update

DEFAULT_MAX_STATES = 500_000


def explore(seeds: Iterable, expand: Callable, max_states: int = DEFAULT_MAX_STATES) -> tuple:
    """Breadth-first search over hashable keys, numbered in discovery order
    with the seeds first.  ``expand(key)`` lists the successor keys of a key.

    Returns ``(keys, index, parents, rows)``: the key of each number, the
    number of each key, the number whose expansion first found each key
    (-1 for the seeds) and each number's successor numbers in the order
    ``expand`` listed them.  Finding a key beyond ``max_states`` raises
    SizeLimitError.
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
    rows = []
    # keys grows while it is read, so reading it in order is the FIFO queue
    for i, key in enumerate(keys):
        rows.append(tuple([number(k, i) for k in expand(key)]))
    return keys, index, parents, rows


@dataclass(frozen=True)
class SafetyGame:
    """An arena plus the set of vertices Player 0 must never leave."""

    arena: Arena
    safe: int


class _ClassView(Sequence):
    """A read-only sequence over the classes whose items are built on access."""

    def __init__(self, n: int, item: Callable):
        self._n = n
        self._item = item

    def __len__(self):
        return self._n

    def __getitem__(self, c):
        return self._item(range(self._n)[c])

    def __eq__(self, other):
        return isinstance(other, (tuple, _ClassView)) and tuple(self) == tuple(other)


@dataclass
class SafetyReduction:
    """The quotient safety game together with the embedding of the original
    vertices and the per-class score sheets.

    ``base_arena`` is the original arena with roles swapped when the tracked
    player is 0, so quotient Player 0 is always the player avoiding the sink.
    Class numbering is breadth-first discovery order and therefore
    reproducible.

    Stored per class: ``keys[c]``, the pair (last vertex, packed score
    vector) of ``scoring.PackedKernel`` (None for the sink), with ``_index``
    mapping keys back to classes.  The packed vector is one int in which
    tracked set i owns the field of n + 2 bits at offset i * (n + 2): its
    accumulator in the low n bits and its score in the next two.  Also
    stored: ``parents[c]``, the class whose expansion found ``c`` (-1 for
    the embedded vertices); ``rows[c]``, the successor classes aligned with
    ``base_arena.succ`` of the last vertex (the sink's row is its
    self-loop); ``_unsafe``, which maps each distinct key that reached the
    threshold to the key of the class that first stepped into it; and
    ``_kernel``, which decodes packed vectors.

    Derived on access, with the entries decoded from the packed vectors:
    ``sheets`` (the sink's is None, the latest appearance records come from
    the parent chain), ``rep_words`` (the first play prefix that reached
    each class; the sink's is the first prefix that crossed the threshold),
    ``unsafe_sheets`` and ``unsafe_class_count``.
    """

    game: SafetyGame
    base_arena: Arena
    embed: tuple
    keys: list
    parents: list
    rows: list
    tracked_player: int
    threshold: int
    family: tuple
    sink: Optional[int]
    _index: dict = field(repr=False)
    _unsafe: dict = field(repr=False)
    _kernel: PackedKernel = field(repr=False)

    @property
    def n_classes(self) -> int:
        return self.game.arena.n

    @property
    def unsafe_class_count(self) -> int:
        return len(self._unsafe)

    @property
    def sheets(self) -> Sequence:
        return _ClassView(self.n_classes, self._sheet)

    @property
    def rep_words(self) -> Sequence:
        return _ClassView(self.n_classes, self._rep_word)

    @property
    def unsafe_sheets(self) -> tuple:
        return tuple(
            ScoreSheet(v, self._kernel.entries(x), lar_update(self._lar(self._index[parent]), v))
            for (v, x), parent in self._unsafe.items()
        )

    def _lar(self, c: int) -> tuple:
        """The latest appearance record of ``rep_words[c]``, newest last."""
        newest_first: list = []
        while c >= 0 and len(newest_first) < self.base_arena.n:
            v = self.keys[c][0]
            if v not in newest_first:
                newest_first.append(v)
            c = self.parents[c]
        return tuple(reversed(newest_first))

    def _sheet(self, c: int) -> Optional[ScoreSheet]:
        if c == self.sink:
            return None
        last, x = self.keys[c]
        return ScoreSheet(last, self._kernel.entries(x), self._lar(c))

    def _rep_word(self, c: int) -> Word:
        if c == self.sink:
            crossing = next(iter(self._unsafe))[0]
            return self._rep_word(self.parents[c]) + (crossing,)
        out = []
        while c >= 0:
            out.append(self.keys[c][0])
            c = self.parents[c]
        return tuple(reversed(out))

    def step_class(self, c: int, v: int) -> int:
        """The quotient successor of class ``c`` under vertex ``v``."""
        if 0 <= c < self.n_classes and c != self.sink:
            succ = self.base_arena.succ[self.keys[c][0]]
            if v in succ:
                return self.rows[c][succ.index(v)]
        raise ValueError(f"no quotient edge from class {c} labelled {v}")

    def class_of(self, word: Word) -> int:
        """The class of a play prefix whose proper prefixes stay below the
        threshold; the sink if the last letter crosses it."""
        if not word:
            raise ValueError("empty play prefix")
        if not is_path(self.base_arena, word):
            raise ValueError("word is not a path of the arena")
        c = self.embed[word[0]]
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
    unsafe: dict = {}

    def expand(key):
        if key is None:
            return (None,)  # the sink is absorbing
        last, x = key
        out = []
        for v in base.succ[last]:
            y = step(x, v)
            if reaches(y, threshold):
                unsafe.setdefault((v, y), key)
                out.append(None)
            else:
                out.append((v, y))
        return out

    seeds = [(v, step(0, v)) for v in range(base.n)]
    keys, index, parents, rows = explore(seeds, expand, max_states)
    sink = index.get(None)

    owner = []
    names = []
    joiner = "" if all(len(nm) == 1 for nm in base.names) else "."
    for c, key in enumerate(keys):
        if key is None:
            owner.append(1)  # absorbing, the owner never matters
            names.append("unsafe")
        else:
            owner.append(base.owner[key[0]])
            prefix = "[" if parents[c] < 0 else names[parents[c]][:-1] + joiner
            names.append(prefix + base.names[key[0]] + "]")

    quotient = Arena(tuple(names), tuple(owner), tuple(tuple(sorted(set(r))) for r in rows))
    safe = (1 << len(keys)) - 1
    if sink is not None:
        safe &= ~(1 << sink)
    return SafetyReduction(
        game=SafetyGame(quotient, safe),
        base_arena=base,
        embed=tuple(index[k] for k in seeds),
        keys=keys,
        parents=parents,
        rows=rows,
        tracked_player=tracked_player,
        threshold=threshold,
        family=family,
        sink=sink,
        _index=index,
        _unsafe=unsafe,
        _kernel=kernel,
    )
