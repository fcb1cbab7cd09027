"""Text formats and the command line interface.

Game files are line oriented, one directive per line, ``#`` starts a
comment::

    vertex <id> <0|1>
    edge <id> <id>
    condition muller        followed by   f0 { id id ... }
    condition parity        followed by   priority <id> <nat>
    condition buchi|cobuchi followed by   final <id>
    condition rr            followed by   pair { ids } { ids }

Strategy files list the memory structure and next-move table::

    player <0|1>
    state <label>
    init <vertex> <label>
    update <label> <vertex> <label>
    move <vertex> <label> { <vertex> ... }

All output is deterministic: identical invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import sys

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    SizeLimitError,
    bit,
    iter_bits,
    mask_of,
    validate,
)
from .oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from .reduction import DEFAULT_MAX_STATES, SafetyReduction, build_safety_game
from .safety_framework import (
    MonitorDFA,
    monitor_for,
    reachable_states,
    solve_via_safety,
)
from .safety_solver import solve_safety
from .strategy import (
    BOTTOM,
    FiniteStateStrategy,
    StrategyProduct,
    build_antichain_strategy,
    build_permissive_strategy,
    consistent_product,
    solve_muller,
    verify_bounded_scores,
)


class GameParseError(ValueError):
    """A syntax or validation error in a game or strategy file."""


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _brace_groups(lineno: int, parts: list, expected: int) -> list:
    groups = []
    i = 0
    while i < len(parts):
        if parts[i] != "{":
            raise GameParseError(f"line {lineno}: expected '{{', got {parts[i]!r}")
        try:
            close = parts.index("}", i)
        except ValueError:
            raise GameParseError(f"line {lineno}: unclosed '{{'") from None
        groups.append(parts[i + 1 : close])
        i = close + 1
    if len(groups) != expected:
        raise GameParseError(f"line {lineno}: expected {expected} braced group(s)")
    return groups


def _vertex(ids: dict, lineno: int, name: str) -> int:
    """The number of the vertex named ``name`` in a file's name→number
    table ``ids``."""
    if name not in ids:
        raise GameParseError(f"line {lineno}: unknown vertex {name!r}")
    return ids[name]


def parse_game(text: str) -> tuple:
    """Parse a game file into a validated (arena, condition) pair."""
    names: list = []
    owners: list = []
    ids: dict = {}
    edges: list = []
    kind = None
    muller_sets: list = []
    priorities: dict = {}
    finals = 0
    pairs: list = []

    for lineno, parts in _tokens(text):
        head = parts[0]
        if head == "vertex":
            if len(parts) != 3 or parts[2] not in ("0", "1"):
                raise GameParseError(f"line {lineno}: expected 'vertex <id> <0|1>'")
            if parts[1] in ids:
                raise GameParseError(f"line {lineno}: duplicate vertex {parts[1]!r}")
            if problem := _unreadable(parts[1]):
                raise GameParseError(f"line {lineno}: {problem}")
            ids[parts[1]] = len(names)
            names.append(parts[1])
            owners.append(int(parts[2]))
        elif head == "edge":
            if len(parts) != 3:
                raise GameParseError(f"line {lineno}: expected 'edge <id> <id>'")
            edges.append((_vertex(ids, lineno, parts[1]), _vertex(ids, lineno, parts[2])))
        elif head == "condition":
            if kind is not None:
                raise GameParseError(f"line {lineno}: duplicate condition block")
            if len(parts) != 2 or parts[1] not in ("muller", "parity", "buchi", "cobuchi", "rr"):
                raise GameParseError(
                    f"line {lineno}: expected 'condition muller|parity|buchi|cobuchi|rr'"
                )
            kind = parts[1]
        elif head == "f0":
            if kind != "muller":
                raise GameParseError(f"line {lineno}: 'f0' outside a muller condition")
            (group,) = _brace_groups(lineno, parts[1:], 1)
            muller_sets.append(mask_of(_vertex(ids, lineno, nm) for nm in group))
        elif head == "priority":
            if kind != "parity":
                raise GameParseError(f"line {lineno}: 'priority' outside a parity condition")
            # isdigit() also accepts digits such as '²' that int() rejects
            if len(parts) != 3 or not (parts[2].isascii() and parts[2].isdigit()):
                raise GameParseError(f"line {lineno}: expected 'priority <id> <nat>'")
            if (v := _vertex(ids, lineno, parts[1])) in priorities:
                raise GameParseError(f"line {lineno}: duplicate 'priority {parts[1]}'")
            priorities[v] = int(parts[2])
        elif head == "final":
            if kind not in ("buchi", "cobuchi"):
                raise GameParseError(f"line {lineno}: 'final' outside a buchi/cobuchi condition")
            if len(parts) != 2:
                raise GameParseError(f"line {lineno}: expected 'final <id>'")
            finals |= bit(_vertex(ids, lineno, parts[1]))
        elif head == "pair":
            if kind != "rr":
                raise GameParseError(f"line {lineno}: 'pair' outside an rr condition")
            req, resp = _brace_groups(lineno, parts[1:], 2)
            pairs.append(
                (
                    mask_of(_vertex(ids, lineno, nm) for nm in req),
                    mask_of(_vertex(ids, lineno, nm) for nm in resp),
                )
            )
        else:
            raise GameParseError(f"line {lineno}: unknown directive {head!r}")

    if not names:
        raise GameParseError("no vertices declared")
    if kind is None:
        raise GameParseError("missing condition")
    arena = Arena.build(owners, edges, names)
    if kind == "muller":
        condition: Condition = MullerCondition(frozenset(muller_sets))
    elif kind == "parity":
        missing = [names[v] for v in range(len(names)) if v not in priorities]
        if missing:
            raise GameParseError(f"missing priority for vertices: {', '.join(missing)}")
        condition = ParityCondition(tuple(priorities[v] for v in range(len(names))))
    elif kind == "buchi":
        condition = BuchiCondition(finals)
    elif kind == "cobuchi":
        condition = CoBuchiCondition(finals)
    else:
        condition = RequestResponseCondition(tuple(pairs))
    problems = validate(arena, condition)
    if problems:
        raise GameParseError("invalid game: " + "; ".join(problems))
    return arena, condition


def _unreadable(name: str) -> str:
    """Why a game file cannot read back the vertex name ``name`` (empty,
    ``}``, or holding whitespace, ``#`` or ``,``), or "" if it can.  A ``,``
    would make a region ambiguous: ``set_str`` and ``verify --start`` join
    names with it."""
    if not name or name == "}" or any(ch in "#," or ch.isspace() for ch in name):
        return (
            f"vertex name {name!r} cannot be read back: a name is not empty or '}}' "
            "and holds no whitespace, '#' or ','"
        )
    return ""


def _check_names(arena: Arena) -> None:
    """Raise ValueError naming the first vertex whose name a file cannot
    read back: ``_unreadable``, or repeating an earlier vertex's name."""
    seen = set()
    for name in arena.names:
        if problem := _unreadable(name):
            raise ValueError(problem)
        if name in seen:
            raise ValueError(f"vertex name {name!r} is repeated")
        seen.add(name)


def serialize_game(arena: Arena, condition: Condition) -> str:
    """The game file of ``arena`` and ``condition``; a vertex name that
    ``parse_game`` could not read back raises ValueError."""
    _check_names(arena)
    lines = [f"vertex {arena.names[v]} {arena.owner[v]}" for v in range(arena.n)]
    lines += [f"edge {arena.names[u]} {arena.names[v]}" for u, v in sorted(arena.edges())]

    def group(mask):
        return "{ " + " ".join(arena.names[v] for v in iter_bits(mask)) + " }"

    if isinstance(condition, MullerCondition):
        lines.append("condition muller")
        lines += [f"f0 {group(s)}" for s in sorted(condition.f0)]
    elif isinstance(condition, ParityCondition):
        lines.append("condition parity")
        lines += [
            f"priority {arena.names[v]} {p}" for v, p in enumerate(condition.priority)
        ]
    elif isinstance(condition, BuchiCondition):
        lines.append("condition buchi")
        lines += [f"final {arena.names[v]}" for v in iter_bits(condition.target)]
    elif isinstance(condition, CoBuchiCondition):
        lines.append("condition cobuchi")
        lines += [f"final {arena.names[v]}" for v in iter_bits(condition.persistent)]
    elif isinstance(condition, RequestResponseCondition):
        lines.append("condition rr")
        lines += [f"pair {group(q)} {group(p)}" for q, p in condition.pairs]
    else:
        raise ValueError(f"cannot serialize a {type(condition).__name__}")
    return "\n".join(lines) + "\n"


def parse_strategy(text: str, arena: Arena) -> FiniteStateStrategy:
    """Parse a strategy file.  The label ``bot`` is reserved: it reads back
    as BOTTOM, the label ``serialize_strategy`` gives it.  Entries the file
    leaves out are only missed when a play needs them: the strategy then
    raises ValueError naming the game's vertex.  A second ``player`` line
    and a repeated state label, ``init`` vertex, ``update`` pair or
    ``move`` pair are errors."""
    player = None
    states: list = []
    declared: set = set()
    init: dict = {}
    update: dict = {}
    moves: dict = {}
    ids: dict = {}
    for v, name in enumerate(arena.names):
        ids.setdefault(name, v)  # a repeated name reads as its first vertex

    def sid(lineno, label):
        if label not in declared:
            raise GameParseError(f"line {lineno}: undeclared state {label!r}")
        return BOTTOM if label == "bot" else label

    for lineno, parts in _tokens(text):
        head = parts[0]
        if head == "player":
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise GameParseError(f"line {lineno}: expected 'player <0|1>'")
            if player is not None:
                raise GameParseError(f"line {lineno}: duplicate 'player'")
            player = int(parts[1])
        elif head == "state":
            if len(parts) != 2:
                raise GameParseError(f"line {lineno}: expected 'state <label>'")
            if parts[1] in declared:
                raise GameParseError(f"line {lineno}: duplicate 'state {parts[1]}'")
            declared.add(parts[1])
            states.append(sid(lineno, parts[1]))
        elif head == "init":
            if len(parts) != 3:
                raise GameParseError(f"line {lineno}: expected 'init <vertex> <state>'")
            if (v := _vertex(ids, lineno, parts[1])) in init:
                raise GameParseError(f"line {lineno}: duplicate 'init {parts[1]}'")
            init[v] = sid(lineno, parts[2])
        elif head == "update":
            if len(parts) != 4:
                raise GameParseError(f"line {lineno}: expected 'update <state> <vertex> <state>'")
            if (key := (sid(lineno, parts[1]), _vertex(ids, lineno, parts[2]))) in update:
                raise GameParseError(f"line {lineno}: duplicate 'update {parts[1]} {parts[2]}'")
            update[key] = sid(lineno, parts[3])
        elif head == "move":
            if len(parts) < 5:
                raise GameParseError(f"line {lineno}: expected 'move <vertex> <state> {{ ... }}'")
            v = _vertex(ids, lineno, parts[1])
            m = sid(lineno, parts[2])
            if (v, m) in moves:
                raise GameParseError(f"line {lineno}: duplicate 'move {parts[1]} {parts[2]}'")
            (group,) = _brace_groups(lineno, parts[3:], 1)
            if not group:
                raise GameParseError(f"line {lineno}: empty move set")
            targets = tuple(_vertex(ids, lineno, nm) for nm in group)
            for u in targets:
                if not arena.has_edge(v, u):
                    raise GameParseError(
                        f"line {lineno}: move {arena.names[v]} -> {arena.names[u]} is not an edge"
                    )
            moves[v, m] = targets
        else:
            raise GameParseError(f"line {lineno}: unknown directive {head!r}")

    if player is None:
        raise GameParseError("missing 'player' line")
    return FiniteStateStrategy.from_tables(
        player, arena.n, states, init.items(), update.items(), moves.items(), arena.names
    )


def serialize_strategy(strat: FiniteStateStrategy, arena: Arena) -> str:
    """The strategy file of ``strat``: state ``i`` is labelled ``m<i>``,
    and BOTTOM ``bot``; each table is written in state-number order, and
    the moves vertex by vertex."""
    _check_names(arena)
    n, names = arena.n, arena.names
    labels = ["bot" if m is BOTTOM else f"m{i}" for i, m in enumerate(strat.states)]
    lines = [f"player {strat.owner_player}"]
    lines += [f"state {label}" for label in labels]
    lines += [f"init {names[v]} {labels[i]}" for v, i in enumerate(strat.init) if i >= 0]
    for i, label in enumerate(labels):
        row = strat.update[i * n : (i + 1) * n]
        lines += [f"update {label} {names[v]} {labels[j]}" for v, j in enumerate(row) if j >= 0]
    for v in range(n):
        for i, label in enumerate(labels):
            k = strat.next_move[i * n + v]
            if k >= 0:
                body = " ".join(names[u] for u in strat.move_sets[v][k])
                lines.append(f"move {names[v]} {label} {{ {body} }}")
    return "\n".join(lines) + "\n"


def _dot_lines(nodes, edges) -> str:
    out = ["digraph G {", "  rankdir=LR;"]
    out += [f"  {n};" for n in nodes]
    out += [f"  {e};" for e in edges]
    out.append("}")
    return "\n".join(out) + "\n"


def _quote(name) -> str:
    """``name`` as a double-quoted DOT ID, with ``\\`` and ``"`` escaped."""
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node(name, owner, doubled=False):
    shape = "ellipse" if owner == 0 else "box"
    peripheries = 2 if doubled else 1
    return f"{_quote(name)} [shape={shape}, peripheries={peripheries}]"


def export_dot(obj) -> str:
    """Graphviz text for an arena, a safety reduction (safe classes drawn
    with double lines), or a strategy product."""
    if isinstance(obj, (Arena, SafetyReduction)):
        arena, safe = (obj, 0) if isinstance(obj, Arena) else (obj.game.arena, obj.game.safe)
        names = arena.names
        nodes = [_node(names[v], arena.owner[v], bool(safe & bit(v))) for v in range(arena.n)]
        edges = [f"{_quote(names[u])} -> {_quote(names[v])}" for u, v in arena.edges()]
        return _dot_lines(nodes, edges)
    if isinstance(obj, StrategyProduct):
        arena = obj.arena

        def label(node):
            v, m = node
            return f"{arena.names[v]},{m!r}"

        nodes = [_node(label(nd), arena.owner[nd[0]]) for nd in obj.nodes]
        edges = [f"{_quote(label(a))} -> {_quote(label(b))}" for a, b in obj.edges]
        return _dot_lines(nodes, edges)
    raise TypeError(f"cannot export a {type(obj).__name__}")


def _monitor_table(dfa: MonitorDFA, arena: Arena, max_states: int) -> tuple:
    """``reachable_states`` labelled ``q0``, ``q1``, ...: a (label,
    accepting) pair per state and every transition as (source label, vertex
    name, target label)."""
    keys, rows = reachable_states(dfa, max_states)
    states = [(f"q{i}", dfa.is_accepting(q)) for i, q in enumerate(keys)]
    trans = [
        (f"q{i}", arena.names[v], f"q{row[v]}") for i, row in enumerate(rows) for v in range(arena.n)
    ]
    return states, trans


def monitor_dot(dfa: MonitorDFA, arena: Arena, max_states: int) -> str:
    states, trans = _monitor_table(dfa, arena, max_states)
    nodes = [_node(q, 0, doubled=accepting) for q, accepting in states]
    edges = [f"{_quote(q)} -> {_quote(t)} [label={_quote(v)}]" for q, v, t in trans]
    return _dot_lines(nodes, edges)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; a file that cannot be read is a
    usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GameParseError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise GameParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _load_game(path: str):
    return parse_game(_read_text(path))


def _regions(arena: Arena, condition: Condition, max_states: int = DEFAULT_MAX_STATES) -> tuple:
    """Both players' winning regions: a Muller game's through its
    score-class quotient, any other game's through its monitor's product,
    each capped at ``max_states`` states."""
    if isinstance(condition, MullerCondition):
        sol = solve_muller(arena, condition, max_states=max_states)
        return sol.w0, sol.w1
    w0, _ = solve_via_safety(arena, condition, monitor_for(arena, condition), max_states)
    return w0, arena.full_mask & ~w0


def _cmd_solve(args) -> int:
    arena, condition = _load_game(args.game)
    w0, w1 = _regions(arena, condition, args.max_states)
    print(f"W0 = {arena.set_str(w0)}")
    print(f"W1 = {arena.set_str(w1)}")
    return 0


def _require_muller(condition) -> MullerCondition:
    if not isinstance(condition, MullerCondition):
        raise GameParseError("this command needs a muller condition")
    return condition


def _cmd_reduce(args) -> int:
    arena, condition = _load_game(args.game)
    muller = _require_muller(condition)
    red = build_safety_game(
        arena,
        muller,
        tracked_player=args.track_player,
        threshold=args.threshold,
        max_states=args.max_states,
    )
    if args.out == "dot":
        sys.stdout.write(export_dot(red))
        return 0
    quotient = red.game.arena
    print(f"classes {quotient.n}")
    print(f"safe {bin(red.game.safe).count('1')}")
    print(f"unsafe-pre-merge {red.unsafe_class_count}")
    print(f"sink {'none' if red.sink is None else quotient.names[red.sink]}")
    for v in range(arena.n):
        print(f"embed {arena.names[v]} {quotient.names[red.embed[v]]}")
    return 0


def _cmd_strategy(args) -> int:
    arena, condition = _load_game(args.game)
    muller = _require_muller(condition)
    if args.kind == "permissive" and args.player != 0:
        raise GameParseError("permissive strategies are computed for player 0")
    tracked = 1 if args.player == 0 else 0
    red = build_safety_game(arena, muller, tracked_player=tracked, max_states=args.max_states)
    sol = solve_safety(red.game)
    build = build_permissive_strategy if args.kind == "permissive" else build_antichain_strategy
    strat = build(red, sol)
    if args.out == "dot":
        # vertex v is class v, so the won classes below n are the region
        start = sol.w0 & arena.full_mask
        sys.stdout.write(export_dot(consistent_product(arena, strat, start)))
        return 0
    sys.stdout.write(serialize_strategy(strat, arena))
    return 0


def _cmd_verify(args) -> int:
    arena, condition = _load_game(args.game)
    muller = _require_muller(condition)
    strat = parse_strategy(_read_text(args.strategy), arena)
    if args.start is not None:
        try:
            start = mask_of(arena.index(nm) for nm in args.start.split(","))
        except KeyError as exc:
            raise GameParseError(f"--start: {exc.args[0]}") from None
    else:
        start = _regions(arena, muller)[strat.owner_player]
    try:
        ok, witness = verify_bounded_scores(arena, muller, strat, start, args.bound)
    except ValueError as exc:
        raise GameParseError(f"strategy file: {exc}") from None
    if ok:
        print(f"verified: scores bounded by {args.bound} from {arena.set_str(start)}")
        return 0
    print(f"violation: {arena.word_str(witness)}")
    return 1


def _cmd_oracle(args) -> int:
    arena, condition = _load_game(args.game)
    if isinstance(condition, RequestResponseCondition):
        raise GameParseError("the oracle does not support request-response conditions")
    if isinstance(condition, MullerCondition):
        zw0, zw1 = zielonka(arena, condition)
    else:
        zw0, zw1 = zielonka(arena, encode_as_muller(arena, condition))
    sw0, sw1 = _regions(arena, condition)
    print(f"oracle W0 = {arena.set_str(zw0)}")
    print(f"oracle W1 = {arena.set_str(zw1)}")
    print(f"solver W0 = {arena.set_str(sw0)}")
    print(f"solver W1 = {arena.set_str(sw1)}")
    if (zw0, zw1) == (sw0, sw1):
        print("agreement: yes")
        return 0
    print("agreement: NO")
    return 1


def _cmd_random(args) -> int:
    cfg = GeneratorConfig(
        n=args.vertices,
        density=args.density,
        owner_bias=args.owner_bias,
        seed=args.seed,
        kind=args.kind,
    )
    arena, condition = random_game(cfg)
    sys.stdout.write(serialize_game(arena, condition))
    return 0


def _cmd_monitor(args) -> int:
    arena, condition = _load_game(args.game)
    dfa = monitor_for(arena, condition)
    if args.out == "dot":
        sys.stdout.write(monitor_dot(dfa, arena, args.max_states))
        return 0
    states, trans = _monitor_table(dfa, arena, args.max_states)
    print(f"states {len(states)}")
    print(f"start {states[0][0]}")
    print("accepting " + " ".join(q for q, accepting in states if accepting))
    for q, v, t in trans:
        print(f"trans {q} {v} {t}")
    return 0


def _at_least_one(text: str) -> int:
    """argparse type of ``--max-states``, ``--bound`` and ``--vertices``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _unit_interval(text: str) -> float:
    """argparse type of ``--density`` and ``--owner-bias``: a number from 0
    to 1 (nan and the infinities are outside)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must be between 0 and 1, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoregames",
        description="Solve Muller and other omega-regular games via safety reductions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="winning regions of a game")
    p.add_argument("game")
    p.add_argument("--max-states", type=_at_least_one, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="score-class safety reduction of a muller game")
    p.add_argument("game")
    p.add_argument("--track-player", type=int, choices=(0, 1), default=1)
    p.add_argument("--threshold", type=int, choices=(2, 3), default=3)
    p.add_argument("--out", choices=("text", "dot"), default="text")
    p.add_argument("--max-states", type=_at_least_one, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("strategy", help="synthesize a finite-state strategy")
    p.add_argument("game")
    p.add_argument("--kind", choices=("antichain", "permissive"), default="antichain")
    p.add_argument("--player", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", choices=("table", "dot"), default="table")
    p.add_argument("--max-states", type=_at_least_one, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_strategy)

    p = sub.add_parser("verify", help="check that a strategy bounds the opponent's scores")
    p.add_argument("game")
    p.add_argument("strategy")
    p.add_argument("--bound", type=_at_least_one, default=2)
    p.add_argument("--start", help="comma separated start vertices (default: winning region)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="cross-check the solver against the recursive oracle")
    p.add_argument("game")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("random", help="generate a seeded random game")
    p.add_argument("--vertices", type=_at_least_one, default=4)
    p.add_argument("--density", type=_unit_interval, default=0.4)
    p.add_argument("--owner-bias", type=_unit_interval, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--kind", choices=("muller", "buchi", "cobuchi", "parity", "rr"), default="muller"
    )
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("monitor", help="the safety monitor of a game's condition")
    p.add_argument("game")
    p.add_argument("--out", choices=("text", "dot"), default="text")
    p.add_argument("--max-states", type=_at_least_one, default=DEFAULT_MAX_STATES)
    p.set_defaults(func=_cmd_monitor)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except GameParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
