import pytest

from scoregames.cli import (
    GameParseError,
    export_dot,
    main,
    parse_game,
    parse_strategy,
    serialize_game,
    serialize_strategy,
)
from scoregames.oracle import GeneratorConfig, random_game
from scoregames.reduction import build_safety_game
from scoregames.safety_solver import solve_safety
from scoregames.strategy import (
    BOTTOM,
    build_antichain_strategy,
    build_permissive_strategy,
    consistent_product,
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


def test_parse_strategy_validates(example4):
    arena, _ = example4
    with pytest.raises(GameParseError, match="not an edge"):
        parse_strategy("player 0\nstate s\nmove 0 s { 2 }\n", arena)
    with pytest.raises(GameParseError, match="missing 'player'"):
        parse_strategy("state s\n", arena)
    with pytest.raises(GameParseError, match="undeclared state"):
        parse_strategy("player 0\ninit 0 nope\n", arena)
    with pytest.raises(GameParseError, match="duplicate state labels"):
        parse_strategy("player 0\nstate s\nstate s\n", arena)


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


def test_cli_oracle(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "oracle", path)
    assert code == 0
    assert "agreement: yes" in out


def test_cli_random_roundtrip(capsys):
    code, out, _ = run(capsys, "random", "--seed", "9", "--vertices", "4")
    assert code == 0
    arena, condition = parse_game(out)
    assert arena.n == 4
    code, out2, _ = run(capsys, "random", "--seed", "9", "--vertices", "4")
    assert out == out2


def test_cli_monitor(tmp_path, capsys):
    path = game_file(tmp_path)
    code, out, _ = run(capsys, "monitor", path)
    assert code == 0
    assert out.startswith("states ")
    code, out, _ = run(capsys, "monitor", path, "--out", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, _, err = run(capsys, "monitor", path, "--kind", "parity")
    assert code == 2


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
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_cli_permissive_for_player1_is_rejected(tmp_path, capsys):
    path = game_file(tmp_path)
    code, _, err = run(capsys, "strategy", path, "--kind", "permissive", "--player", "1")
    assert code == 2
    assert "player 0" in err
