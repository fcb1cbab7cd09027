import re
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scoregames.cli import (
    GameParseError,
    export_dot,
    main,
    parse_game,
    parse_strategy,
    serialize_game,
    serialize_strategy,
)
from scoregames import cli
from scoregames.arena import Arena, MullerCondition, SizeLimitError
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.reduction import build_safety_game
from scoregames.safety_solver import solve_safety
from scoregames.strategy import (
    BOTTOM,
    FiniteStateStrategy,
    build_antichain_strategy,
    build_permissive_strategy,
    consistent_product,
    solve_muller,
    verify_bounded_scores,
)

from conftest import EXAMPLE4_GAME_TEXT, m

ALTERNATING_TEXT = """\
player 0
state go0
state go2
init 0 go0
init 1 go0
init 2 go0
update go0 0 go2
update go0 1 go0
update go0 2 go0
update go2 0 go2
update go2 1 go2
update go2 2 go0
move 1 go0 { 0 }
move 1 go2 { 2 }
"""

PARITY_TEXT = """\
vertex a 0
vertex b 1
edge a b
edge b a
edge b b
condition parity
priority a 0
priority b 1
"""

BUCHI_TEXT = "vertex a 0\nvertex b 1\nedge a b\nedge b a\nedge b b\ncondition buchi\nfinal a\n"
RR_TEXT = (
    "vertex a 1\nvertex b 0\nvertex c 1\nedge a b\nedge b a\nedge b c\nedge c a\n"
    "condition rr\npair { a } { c }\n"
)

# '}' names a vertex that no group lists
BRACE_VERTEX_TEXT = (
    "vertex } 0\nvertex a 1\nedge } a\nedge a }\nedge a a\ncondition muller\nf0 { a }\n"
)


def test_parse_example4(example4):
    arena, muller = example4
    parsed_arena, parsed_condition = parse_game(EXAMPLE4_GAME_TEXT)
    assert parsed_arena == arena
    assert parsed_condition == muller


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GameParseError) as err:
        parse_game("vertex 1 0\nedge 1 3\ncondition muller\n")
    assert "line 2" in str(err.value)
    with pytest.raises(GameParseError, match="missing condition"):
        parse_game("vertex 1 0\nedge 1 1\n")
    with pytest.raises(GameParseError, match="line 1"):
        parse_game("frobnicate\n")
    with pytest.raises(GameParseError, match="not a loop"):
        parse_game("vertex a 0\nvertex b 1\nedge a b\nedge b a\ncondition muller\nf0 { a }\n")
    # '²' is a Unicode digit that int() does not read
    with pytest.raises(GameParseError, match="line 7: expected 'priority <id> <nat>'"):
        parse_game(PARITY_TEXT.replace("priority a 0", "priority a \u00b2"))
    # a second priority for a vertex is an error, not an override
    with pytest.raises(GameParseError, match="line 9: duplicate 'priority a'"):
        parse_game(PARITY_TEXT + "priority a 2\n")
    # the reader refuses the vertex names the writers refuse: no file
    # written for this game could be read back
    with pytest.raises(GameParseError, match="^line 1: vertex name '}' cannot be read back"):
        parse_game(BRACE_VERTEX_TEXT)


def test_roundtrip_example4(example4):
    arena, muller = example4
    text = serialize_game(arena, muller)
    assert parse_game(text) == (arena, muller)
    assert serialize_game(*parse_game(text)) == text


@pytest.mark.parametrize("kind", ["muller", "buchi", "cobuchi", "parity", "rr"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_roundtrip_random_corpus(kind, seed):
    cfg = GeneratorConfig(n=2 + seed, density=0.5, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    text = serialize_game(arena, condition)
    assert parse_game(text) == (arena, condition)
    assert serialize_game(*parse_game(text)) == text


def test_strategy_roundtrip(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    sol = solve_safety(red.game)
    # a multi-strategy and a deterministic one
    for strat in (build_permissive_strategy(red, sol), build_antichain_strategy(red, sol)):
        text = serialize_strategy(strat, arena)
        back = parse_strategy(text, arena)
        assert back.owner_player == 0
        # the reserved label reads back as BOTTOM, so the file round-trips
        assert back.states[-1] is BOTTOM
        assert serialize_strategy(back, arena) == text
        # behaviour agrees along consistent plays
        orig = consistent_product(arena, strat, m(0, 1, 2))
        copy = consistent_product(arena, back, m(0, 1, 2))
        assert len(orig.nodes) == len(copy.nodes)
        assert len(orig.edges) == len(copy.edges)


@pytest.mark.parametrize("n_strategy, n_arena", [(2, 3), (3, 2)])
def test_serialize_strategy_refuses_another_vertex_count(n_strategy, n_arena):
    # the writer indexes the arena's names by the strategy's vertices
    arena = Arena.build([0] * n_arena, [(v, v) for v in range(n_arena)])
    init = [(v, "s") for v in range(n_strategy)]
    strat = FiniteStateStrategy.from_tables(0, n_strategy, ("s",), init, (), ())
    message = f"^strategy is for {n_strategy} vertices, the arena has {n_arena}$"
    with pytest.raises(ValueError, match=message):
        serialize_strategy(strat, arena)


@pytest.mark.parametrize("target, name", [(1, "1"), (7, "7")])
def test_serialize_strategy_refuses_a_non_edge(example4, target, name):
    # parse_strategy refuses a move that is not an edge, so the writer does
    # too, naming both vertices; vertex 1 has no self-loop and 7 is none
    arena, _ = example4
    stray = FiniteStateStrategy.from_tables(0, 3, ("s",), [(1, "s")], (), [((1, "s"), (0, target))])
    with pytest.raises(ValueError, match=f"^move 1 -> {name} is not an edge$"):
        serialize_strategy(stray, arena)


@pytest.mark.parametrize(
    "names", [("ok", "a b"), ("ok", "}"), ("ok", "#x"), ("ok", ""), ("x", "x"), ("ok", "a,b")]
)
def test_names_that_cannot_be_read_back_are_refused(names):
    # parse_game would misread or reject each second name: whitespace and
    # '#' split it, '}' closes a group, ',' joins the names of a region, and
    # a repeated name is a duplicate
    arena = Arena.build([0, 1], [(0, 1), (1, 0)], names)
    muller = MullerCondition(frozenset({0b11}))
    red = build_safety_game(arena, muller)
    strat = build_antichain_strategy(red, solve_safety(red.game))
    with pytest.raises(ValueError, match=re.escape(repr(names[1]))):
        serialize_game(arena, muller)
    with pytest.raises(ValueError, match=re.escape(repr(names[1]))):
        serialize_strategy(strat, arena)


# any name parse_game reads back as one token: not empty or '}', and
# without whitespace, '#' or ','
READABLE_NAME = st.text(
    st.characters(exclude_characters="#,", exclude_categories=("Cs",)), min_size=1
).filter(lambda name: name != "}" and not any(ch.isspace() for ch in name))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 500),
    kind=st.sampled_from(["muller", "buchi", "cobuchi", "parity", "rr"]),
    data=st.data(),
)
def test_readable_names_round_trip(seed, kind, data):
    arena, condition = random_game(
        GeneratorConfig(n=2 + seed % 4, density=0.5, seed=seed, kind=kind)
    )
    names = data.draw(st.lists(READABLE_NAME, min_size=arena.n, max_size=arena.n, unique=True))
    arena = Arena(tuple(names), arena.owner, arena.succ)
    text = serialize_game(arena, condition)
    assert parse_game(text) == (arena, condition)
    if kind == "muller":
        red = build_safety_game(arena, condition)
        strat = build_permissive_strategy(red, solve_safety(red.game))
        text = serialize_strategy(strat, arena)
        assert serialize_strategy(parse_strategy(text, arena), arena) == text


def test_parse_strategy_validates(example4):
    arena, _ = example4
    with pytest.raises(GameParseError, match="not an edge"):
        parse_strategy("player 0\nstate s\nmove 0 s { 2 }\n", arena)
    with pytest.raises(GameParseError, match="missing 'player'"):
        parse_strategy("state s\n", arena)
    with pytest.raises(GameParseError, match="undeclared state"):
        parse_strategy("player 0\ninit 0 nope\n", arena)
    # a repeated key is rejected instead of the last one silently winning
    for text, line in (
        ("player 0\nstate s\nplayer 1\n", "line 3: duplicate 'player'"),
        ("player 0\nstate s\nstate s\n", "line 3: duplicate 'state s'"),
        ("player 0\nstate s\ninit 0 s\ninit 0 s\n", "line 4: duplicate 'init 0'"),
        ("player 0\nstate s\nupdate s 1 s\nupdate s 1 s\n", "line 4: duplicate 'update s 1'"),
        ("player 0\nstate s\nmove 1 s { 0 }\nmove 1 s { 2 }\n", "line 4: duplicate 'move 1 s'"),
    ):
        with pytest.raises(GameParseError, match=line):
            parse_strategy(text, arena)


def test_export_dot_arena(example4):
    arena, _ = example4
    dot = export_dot(arena)
    assert dot.count(" -> ") == 6
    assert dot.count("shape=") == 3
    assert dot.count("shape=ellipse") == 1  # only the middle vertex is Player 0's


def test_export_dot_reduction(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    dot = export_dot(red)
    assert dot.count("peripheries=2") == 19
    assert dot.count("peripheries=1") == 1
    assert '"unsafe"' in dot


def test_export_dot_builds_each_class_name_once(example4, monkeypatch):
    # a class name joins the base names along the class's first play
    # prefix; the export reads each name once, not once per edge end
    arena, muller = example4
    red = build_safety_game(arena, muller)
    calls = Counter()
    word_str = Arena.word_str

    def counted(self, word):
        calls[tuple(word)] += 1
        return word_str(self, word)

    monkeypatch.setattr(Arena, "word_str", counted)
    export_dot(red)
    assert list(calls.values()) == [1] * (red.n_classes - 1)  # every class but the sink


def test_export_dot_empty_strategy_product(example4):
    from scoregames.strategy import StrategyProduct

    arena, _ = example4
    dot = export_dot(StrategyProduct(arena, (), ()))
    assert dot == "digraph G {\n  rankdir=LR;\n}\n"


def test_export_dot_strategy_product(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    perm = build_permissive_strategy(red, solve_safety(red.game))
    dot = export_dot(consistent_product(arena, perm, m(0, 1, 2)))
    assert dot.startswith("digraph")
    # each node's edges in the order the strategy lists its moves, not
    # sorted by node number: "1,3" reaches "0,7" before "2,5"
    edges = [line.strip() for line in dot.splitlines() if " -> " in line]
    assert edges == [
        f'"{a}" -> "{b}";'
        for a, b in [
            ("0,0", "0,0"), ("0,0", "1,3"), ("1,1", "0,4"), ("1,1", "2,5"),
            ("2,2", "1,6"), ("2,2", "2,2"), ("1,3", "0,7"), ("1,3", "2,5"),
            ("0,4", "0,7"), ("0,4", "1,8"), ("2,5", "1,9"), ("2,5", "2,10"),
            ("1,6", "0,4"), ("1,6", "2,10"), ("0,7", "0,7"), ("0,7", "1,11"),
            ("1,8", "2,5"), ("1,9", "0,4"), ("2,10", "1,14"), ("2,10", "2,10"),
            ("1,11", "2,5"), ("1,14", "0,4"),
        ]
    ]


QUOTED_ID = r'"(?:[^"\\]|\\.)*"'
DOT_LINE = re.compile(
    rf"  ({QUOTED_ID}) \[shape=(?:ellipse|box), peripheries=[12]\];"
    rf"|  ({QUOTED_ID}) -> ({QUOTED_ID})(?: \[label=({QUOTED_ID})\])?;"
)


def dot_ids(dot):
    """The IDs of every node and edge line, unquoted; each line must be a
    node or an edge whose IDs are well-formed quoted strings."""
    lines = dot.splitlines()
    assert lines[:2] == ["digraph G {", "  rankdir=LR;"] and lines[-1] == "}"
    ids = []
    for line in lines[2:-1]:
        match = DOT_LINE.fullmatch(line)
        assert match, line
        ids += [re.sub(r"\\(.)", r"\1", g[1:-1]) for g in match.groups() if g is not None]
    return ids


def test_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    text = 'vertex a"b 0\nvertex c\\ 1\nedge a"b c\\\nedge c\\ a"b\nedge c\\ c\\\n'
    arena, _ = parse_game(text + "condition muller\nf0 { c\\ }\n")
    assert set(dot_ids(export_dot(arena))) == {'a"b', "c\\"}
    # Player 0 wins everywhere, so the strategy products are not empty
    path = game_file(tmp_path, text + "condition muller\nf0 { c\\ }\nf0 { a\"b c\\ }\n")
    buchi = game_file(tmp_path, text + "condition buchi\nfinal a\"b\n", "buchi.txt")
    for argv in (
        ("reduce", path, "--out", "dot"),
        ("strategy", path, "--out", "dot"),
        ("strategy", path, "--kind", "permissive", "--out", "dot"),
        ("monitor", buchi, "--out", "dot"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        ids = dot_ids(out)
        assert ids and any('a"b' in i for i in ids), argv


def game_file(tmp_path, text=EXAMPLE4_GAME_TEXT, name="game.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_solve(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out == "W0 = {0,1,2}\nW1 = {}\n"


def test_cli_solve_buchi(tmp_path, capsys):
    text = "vertex a 0\nvertex b 0\nedge a b\nedge b a\ncondition buchi\nfinal a\n"
    path = game_file(tmp_path, text)
    code, out, _ = run(capsys, "solve", path)
    assert code == 0
    assert out == "W0 = {a,b}\nW1 = {}\n"


def test_cli_reduce_text(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "reduce", path, "--track-player", "1")
    assert code == 0
    lines = out.splitlines()
    assert "classes 20" in lines
    assert "safe 19" in lines
    assert "unsafe-pre-merge 4" in lines
    assert "sink unsafe" in lines
    assert lines[-3:] == ["embed 0 [0]", "embed 1 [1]", "embed 2 [2]"]


def test_cli_reduce_dot(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "reduce", path, "--out", "dot")
    assert code == 0
    assert out.count("peripheries=2") == 19


def test_cli_strategy_and_verify(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "strategy", path, "--kind", "permissive")
    assert code == 0
    strat_path = tmp_path / "perm.txt"
    strat_path.write_text(out)
    code, out2, _ = run(capsys, "verify", path, str(strat_path), "--bound", "2")
    assert code == 0
    assert "verified" in out2


def test_cli_verify_alternating(tmp_path, capsys):
    path = game_file(tmp_path)
    alt = tmp_path / "alt.txt"
    alt.write_text(ALTERNATING_TEXT)
    code, out, _ = run(capsys, "verify", path, str(alt), "--bound", "2")
    assert code == 0
    code, out, _ = run(capsys, "verify", path, str(alt), "--bound", "1")
    assert code == 1
    assert "violation" in out
    code, out, _ = run(capsys, "verify", path, str(alt), "--start", "1,2")
    assert code == 0
    code, _, err = run(capsys, "verify", path, str(alt), "--start", "9")
    assert code == 2
    assert "unknown vertex" in err


def test_cli_verify_witness_with_long_names(tmp_path, capsys):
    # with a vertex named "ab", "abbb" would also read as ab.b.b
    game = game_file(
        tmp_path,
        "vertex a 1\nvertex ab 1\nvertex b 1\nedge a b\nedge ab ab\nedge b b\n"
        "condition muller\nf0 { ab }\n",
    )
    strat = tmp_path / "stay.txt"
    strat.write_text("player 0\nstate s\ninit a s\nupdate s b s\n")
    code, out, _ = run(capsys, "verify", game, str(strat), "--start", "a")
    assert code == 1
    assert out == "violation: a.b.b.b\n"


STUBBORN_TEXT = (
    "player 0\nstate s\ninit 0 s\ninit 1 s\ninit 2 s\n"
    "update s 0 s\nupdate s 1 s\nupdate s 2 s\nmove 1 s { 0 }\n"
)


def test_verify_is_capped(tmp_path, capsys):
    # the stubborn strategy lets the opponent pump a score up to any bound,
    # so at a large bound its certificate product outgrows a small cap
    arena, muller = parse_game(EXAMPLE4_GAME_TEXT)
    stubborn = parse_strategy(STUBBORN_TEXT, arena)
    with pytest.raises(SizeLimitError, match="cap of 50 states"):
        verify_bounded_scores(arena, muller, stubborn, m(1), 1000, max_states=50)
    strat = tmp_path / "stubborn.txt"
    strat.write_text(STUBBORN_TEXT)
    # --start skips the region solve, so the cap meets the certificate search
    argv = ("verify", game_file(tmp_path), str(strat), "--bound", "1000", "--start", "1")
    code, out, err = run(capsys, *argv, "--max-states", "50")
    assert code == 3
    assert out == ""
    assert err == "error: state space exceeds the cap of 50 states\n"
    # at the default cap the opponent's score passes 1000 first
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out.startswith("violation: ")


def test_verify_and_oracle_caps_reach_the_cli(tmp_path, capsys):
    # --max-states caps verify's region solve and its certificate search,
    # and oracle's region solve; past the cap is exit 3 with one line
    game = game_file(tmp_path)
    strat = tmp_path / "stubborn.txt"
    strat.write_text(STUBBORN_TEXT)
    for argv in (
        ("verify", game, str(strat)),
        ("verify", game, str(strat), "--start", "1"),
        ("oracle", game),
        ("oracle", game_file(tmp_path, PARITY_TEXT, "parity.txt")),
    ):
        code, out, err = run(capsys, *argv, "--max-states", "1")
        assert (code, out) == (3, ""), argv
        assert err == "error: state space exceeds the cap of 1 states\n", argv
        code, out, err = run(capsys, *argv, "--max-states", "0")
        assert code == 2 and out == "", argv


SELF_LOOP_TEXT = "vertex a 1\nedge a a\ncondition muller\n"
SELF_LOOP_STRATEGY_TEXT = "player 0\nstate s\ninit a s\nupdate s a s\n"


@pytest.mark.parametrize("cap", [1, 2, 3, 7])
def test_verify_bound_meets_the_search_cap(tmp_path, capsys, cap):
    # Player 1 owns a one-vertex self-loop, whose score rises by one a step,
    # so the certificate product numbers one key a score level: with the
    # search capped at M keys, a bound up to M is violated and a larger one
    # outgrows the cap, however large, whatever cap the kernel is built at
    arena, muller = parse_game(SELF_LOOP_TEXT)
    strat = parse_strategy(SELF_LOOP_STRATEGY_TEXT, arena)
    for bound in range(1, cap + 1):
        got = verify_bounded_scores(arena, muller, strat, 1, bound, max_states=cap)
        assert got == (False, (0,) * (bound + 1))
    for bound in (cap + 1, cap + 2, 10**1000):
        with pytest.raises(SizeLimitError, match=f"cap of {cap} states"):
            verify_bounded_scores(arena, muller, strat, 1, bound, max_states=cap)
    path = tmp_path / "loop.txt"
    path.write_text(SELF_LOOP_STRATEGY_TEXT)
    game = game_file(tmp_path, SELF_LOOP_TEXT)
    argv = ("verify", game, str(path), "--start", "a", "--max-states", str(cap))
    code, out, err = run(capsys, *argv, "--bound", "9" * 4000)
    assert (code, out) == (3, "") and err.startswith("error: ")
    violation = f"violation: {arena.word_str((0,) * (cap + 1))}\n"
    assert run(capsys, *argv, "--bound", str(cap)) == (1, violation, "")


def test_cli_closed_stdout_exits_141_without_a_traceback(tmp_path, capsys):
    # the monitor of this request-response game is 69,163 lines long; the
    # reader takes the first and closes the pipe, so a later write or the
    # last flush fails
    import os
    import subprocess

    code, text, _ = run(capsys, "random", "--kind", "rr", "--vertices", "8", "--seed", "5")
    assert code == 0
    argv = [sys.executable, "-m", "scoregames", "monitor", game_file(tmp_path, text)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert first == b"states 8645\n"
    assert err == b""


def test_cli_oracle(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "agreement: yes" in out


def test_cli_random_muller_over_the_loop_guard(capsys):
    code, out, err = run(capsys, "random", "--kind", "muller", "--vertices", "15")
    assert (code, out) == (3, "")
    assert err == "error: loop enumeration over 15 vertices exceeds the guard of 14\n"


def test_cli_random_over_the_vertex_guard(capsys, monkeypatch):
    # every kind has a vertex guard, checked in process before any draw
    from scoregames import oracle

    def seeded(*args):
        raise AssertionError("the generator was seeded")

    monkeypatch.setattr(oracle.random, "Random", seeded)
    huge = "1" + "0" * 30
    for kind in ("muller", "buchi", "cobuchi", "parity", "rr"):
        code, out, err = run(capsys, "random", "--kind", kind, "--vertices", huge)
        assert (code, out) == (3, "")
        assert err == f"error: {huge} random vertices exceed the guard of 1000\n"


def test_cli_random_roundtrip(capsys):
    code, out, _ = run(capsys, "random", "--seed", "9", "--vertices", "4")
    assert code == 0
    arena, condition = parse_game(out)
    assert arena.n == 4
    code, out2, _ = run(capsys, "random", "--seed", "9", "--vertices", "4")
    assert out == out2


def test_cli_max_states_defaults_to_the_shared_cap():
    # every subcommand with --max-states gets the cap the library defaults to
    import argparse

    from scoregames.cli import _build_parser
    from scoregames.reduction import DEFAULT_MAX_STATES

    (subcommands,) = (
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    capped = set()
    for name, sub in subcommands.choices.items():
        if "--max-states" not in sub._option_string_actions:
            continue
        positionals = [a for a in sub._actions if not a.option_strings]
        args = _build_parser().parse_args([name] + ["x"] * len(positionals))
        assert args.max_states == DEFAULT_MAX_STATES, name
        capped.add(name)
    assert capped == {"solve", "reduce", "strategy", "verify", "oracle", "monitor"}


def test_cli_monitor(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "monitor", path)
    assert code == 0
    assert out.startswith("states ")
    code, out, _ = run(capsys, "monitor", path, "--out", "dot")
    assert code == 0
    assert out.startswith("digraph")


@pytest.mark.parametrize("seed, kind", [(1005, "parity"), (1001, "buchi"), (1002, "rr")])
@pytest.mark.parametrize("out", ["text", "dot"])
def test_cli_monitor_steps_each_transition_once(tmp_path, capsys, monkeypatch, seed, kind, out):
    from scoregames.safety_framework import MonitorDFA

    density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
    arena, condition = random_game(
        GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind)
    )
    path = game_file(tmp_path, serialize_game(arena, condition))
    step = MonitorDFA.step
    steps = []

    def counted(self, q, v):
        steps.append(v)
        return step(self, q, v)

    monkeypatch.setattr(MonitorDFA, "step", counted)
    code, text, _ = run(capsys, "monitor", path, "--out", out)
    assert code == 0
    lines = text.splitlines()
    if out == "text":
        n_states = int(lines[0].split()[1])
        n_trans = sum(line.startswith("trans ") for line in lines)
    else:
        n_states = sum("[shape=" in line for line in lines)
        n_trans = sum("[label=" in line for line in lines)
    assert len(steps) == n_trans == n_states * arena.n


def test_cli_errors(tmp_path, capsys):
    bad = game_file(tmp_path, "vertex 1 0\nedge 1 3\ncondition muller\n", "bad.txt")
    code, _, err = run(capsys, "solve", bad)
    assert code == 2
    assert "line 2" in err
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.txt"))
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    # unreadable game files are usage errors, with one line
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"vertex \xe9 0\n")
    for path in (str(tmp_path), str(not_utf8)):
        code, out, err = run(capsys, "solve", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # so is a vertex name that no file written for the game could read back
    brace = game_file(tmp_path, BRACE_VERTEX_TEXT, "brace.txt")
    for argv in (("solve", brace), ("strategy", brace), ("verify", brace, str(not_utf8))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: vertex name '}' cannot be read back")
    # a construction over its state cap is its own exit code, with one line
    parity = game_file(tmp_path, PARITY_TEXT, "parity.txt")
    for command, path, cap in (
        ("solve", game_file(tmp_path), "3"),
        ("reduce", game_file(tmp_path), "3"),
        ("solve", parity, "1"),
    ):
        code, out, err = run(capsys, command, path, "--max-states", cap)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    # caps and bounds below 1 are usage errors
    for argv in (
        ("solve", parity, "--max-states", "-1"),
        ("solve", game_file(tmp_path), "--max-states", "0"),
        ("reduce", game_file(tmp_path), "--max-states", "0"),
        ("strategy", game_file(tmp_path), "--max-states", "0"),
        ("monitor", game_file(tmp_path), "--max-states", "-1"),
        ("verify", game_file(tmp_path), str(tmp_path / "any.txt"), "--bound", "0"),
        ("random", "--vertices", "0"),
        ("random", "--vertices", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("error: ") == 1
    # densities and owner biases outside [0, 1] are usage errors naming the value
    for option, value in (
        ("--density", "2"),
        ("--density", "-0.5"),
        ("--density", "nan"),
        ("--density", "inf"),
        ("--density", "dense"),
        ("--owner-bias", "1.5"),
        ("--owner-bias", "-0.01"),
        ("--owner-bias", "nan"),
    ):
        code, out, err = run(capsys, "random", option, value)
        assert code == 2
        assert out == ""
        assert err.count("error: ") == 1
        assert option in err and value in err
    for value in ("0", "1", "0.5"):
        code, out, _ = run(capsys, "random", "--density", value, "--owner-bias", value)
        assert code == 0 and out
    # a strategy file without an entry that a play needs
    for missing in ("init 0 go0\n", "update go0 1 go0\n", "move 1 go2 { 2 }\n"):
        strat = tmp_path / "partial.txt"
        strat.write_text(ALTERNATING_TEXT.replace(missing, ""))
        code, out, err = run(capsys, "verify", game_file(tmp_path), str(strat))
        assert code == 2
        assert out == ""
        assert err.startswith("error: strategy file: ") and err.count("\n") == 1
    # the message names the game's vertex, not its index
    named = game_file(
        tmp_path, "vertex a 0\nvertex b 1\nedge a b\nedge b a\ncondition muller\nf0 { a b }\n", "ab.txt"
    )
    strat = tmp_path / "named-strategy.txt"
    strat.write_text("player 0\nstate s\ninit a s\nupdate s a s\nupdate s b s\nmove a s { b }\n")
    code, out, err = run(capsys, "verify", named, str(strat))
    assert code == 2
    assert out == ""
    assert err == "error: strategy file: strategy has no initial state for vertex b\n"


# a vertex named 'a,b' next to vertices a and b: the region {a, b} would
# print as {a,b} and 'verify --start a,b' would read as {a, b}
COMMA_VERTEX_TEXT = (
    "vertex a 0\nvertex b 0\nvertex a,b 1\nedge a a\nedge b b\nedge a,b a,b\n"
    "condition muller\nf0 { a }\nf0 { b }\n"
)

# (game file, strategy file or None, message); game files alone are read by
# solve, strategy files (for the running example) by verify
ERROR_PATHS = [
    (RR_TEXT.replace("pair { a } { c }", "pair { a }"), None, "line 9: expected 2 braced group(s)"),
    (BUCHI_TEXT.replace("final a", "final a b"), None, "line 7: expected 'final <id>'"),
    (EXAMPLE4_GAME_TEXT + "pair { 0 } { 1 }\n", None, "line 15: 'pair' outside an rr condition"),
    ("condition muller\n", None, "no vertices declared"),
    (PARITY_TEXT.replace("priority b 1\n", ""), None, "missing priority for vertices: b"),
    (
        COMMA_VERTEX_TEXT,
        None,
        "line 3: vertex name 'a,b' cannot be read back: a name is not empty or '}' and holds"
        " no whitespace, '#' or ','",
    ),
    (EXAMPLE4_GAME_TEXT, "player 0 1\n", "line 1: expected 'player <0|1>'"),
    (EXAMPLE4_GAME_TEXT, "player 0\nstate\n", "line 2: expected 'state <label>'"),
    (EXAMPLE4_GAME_TEXT, "player 0\nstate s\ninit 0\n", "line 3: expected 'init <vertex> <state>'"),
    (
        EXAMPLE4_GAME_TEXT,
        "player 0\nstate s\nupdate s 0\n",
        "line 3: expected 'update <state> <vertex> <state>'",
    ),
    (
        EXAMPLE4_GAME_TEXT,
        "player 0\nstate s\nmove 1 s\n",
        "line 3: expected 'move <vertex> <state> { ... }'",
    ),
    (EXAMPLE4_GAME_TEXT, "player 0\nstate s\nmove 1 s { }\n", "line 3: empty move set"),
    (EXAMPLE4_GAME_TEXT, "player 0\nstate s\ninit 9 s\n", "line 3: unknown vertex '9'"),
    (EXAMPLE4_GAME_TEXT, "player 0\nstate s\nmove 1 s { 9 }\n", "line 3: unknown vertex '9'"),
]


@pytest.mark.parametrize(
    "game_text, strategy_text, message", ERROR_PATHS, ids=range(len(ERROR_PATHS))
)
def test_cli_error_paths_exit_2_with_their_message(
    tmp_path, capsys, game_text, strategy_text, message
):
    # every failure reaches the command line as its exit code and message
    game = game_file(tmp_path, game_text)
    if strategy_text is None:
        argv = ("solve", game)
    else:
        argv = ("verify", game, game_file(tmp_path, strategy_text, "strategy.txt"))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_cli_priority_longer_than_int_reads_exits_2(tmp_path, capsys):
    # int() refuses a string of more than sys.get_int_max_str_digits()
    # digits (4300 by default), which isdigit() lets through
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() reads any number of digits here")
    digits = "9" * (limit + 1)
    game = game_file(tmp_path, PARITY_TEXT.replace("priority a 0", f"priority a {digits}"))
    message = f"error: line 7: {limit + 1}-digit priority is too long\n"
    assert run(capsys, "solve", game) == (2, "", message)


def test_cli_oracle_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_regions", lambda arena, condition, max_states: (0, arena.full_mask))
    code, out, err = run(capsys, "oracle", game_file(tmp_path))
    assert (code, err) == (1, "")
    assert out.endswith("solver W0 = {}\nsolver W1 = {0,1,2}\nagreement: NO\n")


def test_cli_determinism(tmp_path, capsys):
    path = game_file(tmp_path)
    for argv in (
        ("solve", path),
        ("reduce", path, "--out", "dot"),
        ("strategy", path),
        ("strategy", path, "--kind", "permissive"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def test_cli_determinism_across_processes(tmp_path):
    # different hash seeds must not leak into the output ordering
    import os
    import subprocess
    import sys

    path = game_file(tmp_path)
    outputs = []
    for hashseed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        result = subprocess.run(
            [sys.executable, "-m", "scoregames.cli", "strategy", path, "--kind", "permissive"],
            capture_output=True,
            env=env,
            check=True,
        )
        # the package does not import cli before runpy runs it as __main__
        assert result.stderr == b""
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_cli_permissive_for_player1_verifies_and_round_trips(tmp_path, capsys):
    # the seed-3 game gives Player 1 the region {1,3}: Player 1's permissive
    # file verifies from there and reads back to the same bytes
    code, text, _ = run(capsys, "random", "--seed", "3", "--vertices", "5")
    assert code == 0
    path = game_file(tmp_path, text)
    code, out, _ = run(capsys, "strategy", path, "--kind", "permissive", "--player", "1")
    assert code == 0
    strat_path = game_file(tmp_path, out, "p1.txt")
    for bound in ("1", "2"):
        code, verified, _ = run(capsys, "verify", path, strat_path, "--bound", bound)
        assert (code, verified) == (0, f"verified: scores bounded by {bound} from {{1,3}}\n")
    arena, _ = parse_game(text)
    assert serialize_strategy(parse_strategy(out, arena), arena) == out


def test_cli_reads_past_a_byte_order_mark(tmp_path, capsys):
    # a UTF-8 byte-order mark in front of a game or strategy file changes
    # nothing, and a bad byte after one is still reported at its offset in
    # the file
    bom = "\ufeff"
    path = game_file(tmp_path)
    alt = game_file(tmp_path, ALTERNATING_TEXT, "alt.txt")
    marked_game = game_file(tmp_path, bom + EXAMPLE4_GAME_TEXT, "bom.txt")
    marked_alt = game_file(tmp_path, bom + ALTERNATING_TEXT, "bom-alt.txt")
    for plain, marked in (
        (("solve", path), ("solve", marked_game)),
        (("verify", path, alt), ("verify", path, marked_alt)),
    ):
        expected = run(capsys, *plain)
        assert expected[0] == 0
        assert run(capsys, *marked) == expected
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bom.encode() + b"ab\xff")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert err.endswith("at byte 5)\n")


JUNK = ("{", "}", "0", "1", "2", "3", "-1", "a", "b", "x", "bot", "s", "go0", "\u00b2", "player")


@st.composite
def mutated(draw, text):
    """``text`` with a few lines deleted, repeated, swapped, rewritten token
    by token or inserted from a small vocabulary."""
    lines = text.splitlines()
    vocab = sorted({tok for line in lines for tok in line.split()} | set(JUNK))
    token = st.sampled_from(vocab)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(("delete", "repeat", "swap", "token", "insert")))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "insert" or not lines:
            lines.insert(i, " ".join(draw(st.lists(token, min_size=1, max_size=5))))
        elif op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(token)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


@st.composite
def game_and_strategy(draw):
    """The texts of a game file and of a strategy file: one of the fixed
    games with the running example's alternating strategy, or a generator
    game of 2 to 5 vertices with, for a muller game, one player's antichain
    strategy for it, and the alternating strategy otherwise."""
    if draw(st.booleans()):
        texts = (EXAMPLE4_GAME_TEXT, EXAMPLE4_GAME_TEXT, PARITY_TEXT, BUCHI_TEXT, RR_TEXT)
        return draw(st.sampled_from(texts)), ALTERNATING_TEXT
    kind = draw(st.sampled_from(("muller", "muller", "buchi", "cobuchi", "parity", "rr")))
    seed = draw(st.integers(0, 10_000))
    cfg = GeneratorConfig(n=2 + seed % 4, density=0.5, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    if kind != "muller":
        return serialize_game(arena, condition), ALTERNATING_TEXT
    sol = solve_muller(arena, condition)
    strat = draw(st.sampled_from((sol.strategy_p0, sol.strategy_p1)))
    return serialize_game(arena, condition), serialize_strategy(strat, arena)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_cli_fuzzed_files_exit_with_a_code(tmp_path, data):
    # whatever the game and strategy files hold, main returns a documented
    # exit code (0-3) instead of raising
    game_text, strat_text = data.draw(game_and_strategy())
    game = game_file(tmp_path, data.draw(mutated(game_text)))
    strat = tmp_path / "strategy.txt"
    strat.write_text(data.draw(mutated(strat_text)))
    argv = data.draw(
        st.sampled_from(
            (
                ["solve", game, "--max-states", "2000"],
                ["reduce", game, "--max-states", "2000"],
                ["strategy", game, "--kind", "permissive", "--max-states", "2000"],
                ["strategy", game, "--out", "dot", "--max-states", "2000"],
                ["oracle", game],
                ["monitor", game, "--max-states", "2000"],
                ["verify", game, str(strat)],
                ["verify", game, str(strat), "--start", "0,1", "--bound", "1"],
                ["verify", game, str(strat), "--start", "1", "--bound", "3"],
            )
        )
    )
    assert main(argv) in (0, 1, 2, 3)


@st.composite
def fuzzed_argv(draw, games, strategies, broken):
    """An argument vector for one of the seven subcommands: options in any
    order, each with a value that is valid about half the time and
    otherwise negative, zero, non-numeric or empty, and paths of the right
    kind of file about half the time and otherwise of the wrong kind,
    missing or a directory."""

    def value(*valid):
        return st.one_of(st.sampled_from(valid), st.sampled_from(("-1", "0", "x", "", "1.5", "\u00b2", "--")))

    huge = "1" + "0" * 30
    count = value("1", "2", "3", huge)
    game = st.one_of(st.sampled_from(games), st.sampled_from(strategies + broken))
    strategy = st.one_of(st.sampled_from(strategies), st.sampled_from(games + broken))
    options = {
        "solve": {"--max-states": count},
        "reduce": {"--track-player": value("0", "1"), "--threshold": value("2", "3"),
                   "--out": value("text", "dot"), "--max-states": count},
        "strategy": {"--kind": value("antichain", "permissive"), "--player": value("0", "1"),
                     "--out": value("table", "dot"), "--max-states": count},
        # small bounds keep the certificate product of a losing strategy small
        "verify": {"--bound": value("1", "2", "3"), "--start": value("0", "1,2", "0,0", "9", ","),
                   "--max-states": count},
        "oracle": {"--max-states": count},
        # small arenas keep loop enumeration cheap; a huge one is refused
        "random": {"--vertices": value("1", "2", "3", huge), "--density": value("0.5", "1", huge),
                   "--owner-bias": value("0.5", "nan"), "--seed": value("1", huge),
                   "--kind": value("muller", "buchi", "cobuchi", "parity", "rr")},
        "monitor": {"--out": value("text", "dot"), "--max-states": count},
    }
    command = draw(st.sampled_from(sorted(options)))
    argv = [command]
    if command != "random":
        argv.append(draw(game))
    if command == "verify":
        argv.append(draw(strategy))
    flags = sorted(options[command])
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)) if flags else ():
        argv += [flag, draw(options[command][flag])]
    return argv

@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_cli_fuzzed_arguments_exit_with_a_code(tmp_path, data):
    # whatever the command line holds, main returns a documented exit code
    # (0-3) instead of raising
    games = (game_file(tmp_path), game_file(tmp_path, PARITY_TEXT, "parity.txt"))
    strategies = (
        game_file(tmp_path, ALTERNATING_TEXT, "alternating.txt"),
        game_file(tmp_path, STUBBORN_TEXT, "stubborn.txt"),
    )
    broken = (str(tmp_path / "missing.txt"), str(tmp_path))
    assert main(data.draw(fuzzed_argv(games, strategies, broken))) in (0, 1, 2, 3)


# tokens the file formats or the CLI's output give a meaning of their own
NAME_TOKENS = ("}", "{", ",", ".", "bot", "unsafe", "q0")


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    seed=st.integers(0, 500),
    kind=st.sampled_from(["muller", "buchi", "cobuchi", "parity", "rr"]),
    renames=st.dictionaries(st.integers(0, 4), st.sampled_from(NAME_TOKENS), min_size=1),
)
# vertex 1 is in no f0 set, so a file naming it '}' reads as a valid game
@example(seed=1, kind="muller", renames={1: "}"})
def test_cli_fuzzed_vertex_names_exit_with_a_code(tmp_path, seed, kind, renames):
    # whatever tokens a game file uses as vertex names, main returns a
    # documented exit code (0-3) instead of raising
    arena, condition = random_game(
        GeneratorConfig(n=2 + seed % 4, density=0.5, seed=seed, kind=kind)
    )
    names = tuple(f"v{v}" for v in range(arena.n))
    text = serialize_game(Arena(names, arena.owner, arena.succ), condition)
    renamed = {f"v{v}": token for v, token in renames.items()}
    lines = [" ".join(renamed.get(tok, tok) for tok in line.split()) for line in text.splitlines()]
    game = game_file(tmp_path, "\n".join(lines) + "\n")
    strat = game_file(tmp_path, "player 0\n", "strategy.txt")
    for argv in (
        ["solve", game, "--max-states", "2000"],
        ["reduce", game, "--max-states", "2000"],
        ["strategy", game, "--max-states", "2000"],
        ["oracle", game],
        ["monitor", game, "--max-states", "2000"],
        ["verify", game, strat],
    ):
        assert main(argv) in (0, 1, 2, 3), argv
