"""The command line's bytes, pinned.  Each group runs ``main`` in process
and hashes the (argv, exit code, stdout, stderr) of every call with
sha256, so a change that moves any printed byte, exit code or message
fails the group it moved in.  Files are written to the test's directory,
which is the working directory, and named relative to it, so argv does
not depend on where the test runs."""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from scoregames.cli import main, serialize_game
from scoregames.oracle import GeneratorConfig, random_game

from conftest import EXAMPLE4_GAME_TEXT
from test_acceptance import corpus_config

CORPUS_SEEDS = [seed for seed in range(48) if corpus_config(seed).n <= 5]
FRAMEWORK_SEEDS = range(1000, 1012)
FRAMEWORK_KINDS = ("buchi", "cobuchi", "parity", "rr")

PARITY = "vertex a 0\nvertex b 1\nedge a b\nedge b a\nedge b b\ncondition parity\n"
RR = "vertex a 0\nvertex b 1\nedge a b\nedge b a\nedge b b\ncondition rr\n"
MULLER = "vertex a 0\nvertex b 1\nedge a b\nedge b a\nedge b b\ncondition muller\n"
STRATEGY = "player 0\nstate s\n"

# one malformed game file for each error the directive loop of parse_game
# raises, and for each error after it
BAD_GAMES = [
    "vertex a\n",
    "vertex a 2\n",
    "vertex a 0\nvertex a 1\n",
    "vertex } 0\n",
    "vertex a,b 0\n",
    "vertex a 0\nedge a\n",
    "vertex a 0\nedge a b\n",
    "vertex a 0\nedge b a\n",
    "condition muller\ncondition muller\n",
    "condition\n",
    "condition streett\n",
    "f0 { a }\n",
    "condition parity\nf0 { a }\n",
    MULLER + "f0 a\n",
    MULLER + "f0 { a\n",
    MULLER + "f0 { a } { b }\n",
    MULLER + "f0\n",
    MULLER + "f0 { c }\n",
    "priority a 0\n",
    MULLER + "priority a 0\n",
    PARITY + "priority a\n",
    PARITY + "priority a -1\n",
    PARITY + "priority a 1.5\n",
    PARITY + "priority a ²\n",
    PARITY + "priority c 0\n",
    PARITY + "priority a 0\npriority a 1\n",
    "final a\n",
    PARITY + "final a\n",
    "condition buchi\nfinal\n",
    "vertex a 0\ncondition cobuchi\nfinal a a\n",
    "vertex a 0\ncondition buchi\nfinal b\n",
    "pair { a } { b }\n",
    MULLER + "pair { a } { b }\n",
    RR + "pair { a }\n",
    RR + "pair { a } b\n",
    RR + "pair { a } { c }\n",
    "frobnicate\n",
    "vertex a 0 # a comment\nfrobnicate here\n",
    # after the loop
    "",
    "condition muller\n",
    "vertex a 0\nedge a a\n",
    PARITY + "priority a 0\n",
    "vertex a 0\ncondition muller\nf0 { a }\n",
    MULLER + "f0 { a }\n",
]

# one malformed strategy file, for the running example, for each error the
# directive loop of parse_strategy raises, and for the one after it
BAD_STRATEGIES = [
    "player\n",
    "player 2\n",
    "player 0 1\n",
    "player 0\nplayer 1\n",
    "player 0\nstate\n",
    "player 0\nstate s t\n",
    "player 0\nstate s\nstate s\n",
    "player 0\nstate bot\nstate bot\n",
    STRATEGY + "init 0\n",
    STRATEGY + "init 9 s\n",
    STRATEGY + "init 0 t\n",
    STRATEGY + "init 0 s\ninit 0 s\n",
    STRATEGY + "update s 0\n",
    STRATEGY + "update t 0 s\n",
    STRATEGY + "update s 9 s\n",
    STRATEGY + "update s 0 t\n",
    STRATEGY + "update s 0 s\nupdate s 0 s\n",
    STRATEGY + "move 1 s\n",
    STRATEGY + "move 1 s {\n",
    STRATEGY + "move 9 s { 0 }\n",
    STRATEGY + "move 1 t { 0 }\n",
    STRATEGY + "move 1 s { 0 }\nmove 1 s { 2 }\n",
    STRATEGY + "move 1 s 0 }\n",
    STRATEGY + "move 1 s { 0\n",
    STRATEGY + "move 1 s { 0 } { 2 }\n",
    STRATEGY + "move 1 s { }\n",
    STRATEGY + "move 1 s { 9 }\n",
    STRATEGY + "move 1 s { 1 }\n",
    STRATEGY + "move 0 s { 2 }\n",
    STRATEGY + "frobnicate\n",
    # after the loop
    "state s\n",
    "",
]


class Recorder:
    """Runs ``main`` and folds each call into one sha256."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, name: str, text: str) -> str:
        Path(name).write_text(text)
        return name

    def run(self, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        for part in (repr(argv), str(code), out.getvalue(), err.getvalue()):
            self.digest.update(part.encode() + b"\0")
        return out.getvalue()


def framework_game(seed: int, kind: str):
    density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
    return random_game(GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind))


def corpus_solve(rec):
    for seed in CORPUS_SEEDS:
        game = rec.write(f"c{seed}.txt", serialize_game(*random_game(corpus_config(seed))))
        rec.run("solve", game)


def corpus_reduce(rec):
    for seed in CORPUS_SEEDS:
        game = rec.write(f"c{seed}.txt", serialize_game(*random_game(corpus_config(seed))))
        for track in ("0", "1"):
            rec.run("reduce", game, "--track-player", track)
        rec.run("reduce", game, "--out", "dot")


def corpus_strategy(rec):
    # both players' antichain strategies and the permissive one, as tables
    # and as DOT, and verify of each table at bounds 1 and 2
    for seed in CORPUS_SEEDS:
        game = rec.write(f"c{seed}.txt", serialize_game(*random_game(corpus_config(seed))))
        for kind, player in (("antichain", "0"), ("antichain", "1"), ("permissive", "0")):
            options = ("--kind", kind, "--player", player)
            table = rec.write(f"c{seed}-{kind}{player}.txt", rec.run("strategy", game, *options))
            rec.run("strategy", game, *options, "--out", "dot")
            for bound in ("1", "2"):
                rec.run("verify", game, table, "--bound", bound)


def framework(rec):
    for kind in FRAMEWORK_KINDS:
        for seed in FRAMEWORK_SEEDS:
            game = rec.write(f"{kind}{seed}.txt", serialize_game(*framework_game(seed, kind)))
            rec.run("solve", game)
            if kind != "rr":
                rec.run("oracle", game)
            rec.run("monitor", game)
            rec.run("monitor", game, "--out", "dot")


def parse_errors(rec):
    for i, text in enumerate(BAD_GAMES):
        rec.run("solve", rec.write(f"bad{i}.txt", text))
    game = rec.write("example4.txt", EXAMPLE4_GAME_TEXT)
    for i, text in enumerate(BAD_STRATEGIES):
        rec.run("verify", game, rec.write(f"bad-strategy{i}.txt", text))


GROUPS = {
    corpus_solve: "f00d373a1fc903fc4b3f7dd4973075f1d2f4220f5868ca8ad23b4d6001e9f0be",
    corpus_reduce: "69722243e39bf221adbf0cae890714b2f48f4ea1710f4a4aa2b621aa447add66",
    corpus_strategy: "488ecb1cad1bba00d4eda2262d3d78d9c9bae6bf5c1e653bc19ad5023134d851",
    framework: "36ae5f951fa436dd95cc4664b1544601063edd6fb8d42a81e4eb44dc1669454e",
    parse_errors: "5590197d974b6e51c4889ef29ceb29e3a8e84b01740d68c90b3a69ce8c5ec056",
}


@pytest.mark.parametrize("group", GROUPS, ids=[group.__name__ for group in GROUPS])
def test_cli_bytes_are_pinned(tmp_path, monkeypatch, group):
    monkeypatch.chdir(tmp_path)
    rec = Recorder()
    group(rec)
    assert rec.digest.hexdigest() == GROUPS[group]
