"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

The random corpus is processed in one streaming pass (fixture ``corpus``):
reductions for dense six-vertex games reach ~100k classes, so per-game
artifacts are dropped after their checks and only small summaries are kept.
"""
import time
from contextlib import contextmanager
from math import factorial

import pytest

from scoregames.arena import bit, iter_bits, mask_of
from scoregames.cli import main
from scoregames.oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from scoregames.reduction import build_safety_game
from scoregames.safety_framework import monitor_for, muller_monitor, solve_via_safety
from scoregames.safety_solver import solve_safety
from scoregames.strategy import (
    BOTTOM,
    build_antichain_strategy,
    build_permissive_strategy,
    check_subsumption_bounded,
    consistent_product,
    solve_muller,
    verify_bounded_scores,
)

from reference import class_of, class_sheet, lar_sum_bound, maxscore, score_word, sheet_le
from conftest import (
    EXAMPLE4_GAME_TEXT,
    alternating_strategy,
    m,
    strategy_keeps_reject_unreachable,
    word,
)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {text}")
        raise
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------------------
# the 200-game Muller corpus, processed once


def corpus_config(seed):
    n = 3 + seed % 4
    if n < 6:
        density = (0.25, 0.45, 0.65, 0.85)[(seed // 4) % 4]
    else:
        density = (0.25, 0.4, 0.55, 0.7)[(seed // 4) % 4]
    return GeneratorConfig(n=n, density=density, seed=seed, kind="muller")


@pytest.fixture(scope="module")
def corpus():
    results = {
        "games": 0,
        "oracle_mismatches": [],
        "bound2_failures": [],
        "antichain_violations": [],
        "bottom_reached": [],
        "subsumption_failures": [],
        "size_bound_failures": [],
        "threshold2_failures": [],
        "solver_entrypoint_mismatches": [],
    }
    t0 = time.monotonic()
    for seed in range(200):
        arena, muller = random_game(corpus_config(seed))
        n = arena.n

        red1 = build_safety_game(arena, muller, tracked_player=1)
        sol1 = solve_safety(red1.game)
        red0 = build_safety_game(arena, muller, tracked_player=0)
        sol0 = solve_safety(red0.game)
        w0 = mask_of(v for v in range(n) if sol1.w0 & bit(red1.embed[v]))
        w1 = mask_of(v for v in range(n) if sol0.w0 & bit(red0.embed[v]))

        # criterion 3: exact agreement with the independent recursive solver
        if (w0, w1) != zielonka(arena, muller) or (w0 | w1) != arena.full_mask or w0 & w1:
            results["oracle_mismatches"].append(seed)
        # the packaged entry point composes exactly these pieces; spot-check it
        if seed % 4 == 0:
            sol = solve_muller(arena, muller)
            if (sol.w0, sol.w1) != (w0, w1):
                results["solver_entrypoint_mismatches"].append(seed)

        # criteria 4 and 5 on both players' antichain strategies
        for red, rsol, start in ((red1, sol1, w0), (red0, sol0, w1)):
            strat = build_antichain_strategy(red, rsol)
            states = [s for s in strat.states if s is not BOTTOM]
            for a in states:
                for b in states:
                    if a != b and sheet_le(red.family, class_sheet(red, a), class_sheet(red, b)):
                        results["antichain_violations"].append(seed)
            if start:
                ok, _ = verify_bounded_scores(arena, muller, strat, start, 2)
                if not ok:
                    results["bound2_failures"].append((seed, strat.owner_player))
                product = consistent_product(arena, strat, start)
                if any(node[1] is BOTTOM for node in product.nodes):
                    results["bottom_reached"].append((seed, strat.owner_player))

        # criteria 4 and 6 on the permissive strategy
        perm = build_permissive_strategy(red1, sol1)
        if w0:
            ok, _ = verify_bounded_scores(arena, muller, perm, w0, 2)
            if not ok:
                results["bound2_failures"].append((seed, "permissive"))
            candidate = build_antichain_strategy(red1, sol1)
            for v in iter_bits(w0):
                if not check_subsumption_bounded(arena, muller, candidate, perm, v, 20):
                    results["subsumption_failures"].append((seed, v))

        # criterion 7: size bounds for every reduction constructed here
        red2 = build_safety_game(arena, muller, tracked_player=1, threshold=2)
        for red in (red1, red0, red2):
            if red.n_classes > lar_sum_bound(n):
                results["size_bound_failures"].append(seed)
            if n >= 4 and red.n_classes > factorial(n) ** 3:
                results["size_bound_failures"].append(seed)

        # criterion 9: the threshold-2 region is a sound under-approximation
        sol2 = solve_safety(red2.game)
        w0_t2 = mask_of(v for v in range(n) if sol2.w0 & bit(red2.embed[v]))
        if w0_t2 & ~w0:
            results["threshold2_failures"].append(seed)

        results["games"] += 1
    results["elapsed"] = time.monotonic() - t0
    return results


def test_criterion_01_scoring_example():
    with criterion(1, "scoring values of the worked example"):
        t0 = time.monotonic()
        assert score_word(m(0, 1), word("10012100")) == (1, m(0))
        assert maxscore([m(0, 1)], word("10012100")) == 2
        assert score_word(m(0, 1), word("10012")) == (0, 0)
        assert time.monotonic() - t0 < 0.1


def test_criterion_02_running_example(example4):
    with criterion(2, "running example: regions, embedding, classes"):
        arena, muller = example4
        t0 = time.monotonic()
        sol = solve_muller(arena, muller)
        assert sol.w0 == m(0, 1, 2) and sol.w1 == 0
        red = build_safety_game(arena, muller)
        rsol = solve_safety(red.game)
        for v in range(3):
            assert rsol.w0 & bit(red.embed[v])
        assert class_of(red, word("10012")) == class_of(red, word("12"))
        assert red.unsafe_class_count == 4
        assert time.monotonic() - t0 < 1.0


def test_criterion_03_oracle_equivalence(corpus):
    with criterion(3, f"oracle equivalence on 200 games ({corpus['elapsed']:.0f}s)"):
        assert corpus["games"] == 200
        assert corpus["oracle_mismatches"] == []
        assert corpus["solver_entrypoint_mismatches"] == []
        assert corpus["elapsed"] < 300


def test_criterion_04_score_bound(corpus, example4):
    with criterion(4, "strategies bound the opponent's scores by 2; bound 1 unattainable"):
        assert corpus["bound2_failures"] == []
        arena, muller = example4
        red = build_safety_game(arena, muller)
        strat = build_antichain_strategy(red, solve_safety(red.game))
        ok, _ = verify_bounded_scores(arena, muller, strat, m(0, 1, 2), 1)
        assert not ok


def test_criterion_05_antichain(corpus):
    with criterion(5, "memory states are antichains and BOTTOM stays unreachable"):
        assert corpus["antichain_violations"] == []
        assert corpus["bottom_reached"] == []


def test_criterion_06_permissiveness(corpus, example4):
    with criterion(6, "permissive moves match the worked example; subsumption holds"):
        arena, muller = example4
        red = build_safety_game(arena, muller)
        sol = solve_safety(red.game)
        perm = build_permissive_strategy(red, sol)
        assert perm.moves(1, red.embed[1]) == (0, 2)
        assert perm.moves(1, class_of(red, word("1001"))) == (2,)
        for v in range(3):
            assert check_subsumption_bounded(
                arena, muller, alternating_strategy(), perm, v, 20
            )
        assert corpus["subsumption_failures"] == []


def test_criterion_07_size_bound(corpus, example4):
    with criterion(7, "class counts below the record-based bound"):
        assert corpus["size_bound_failures"] == []
        arena, muller = example4
        red = build_safety_game(arena, muller)
        assert red.n_classes <= lar_sum_bound(3)
        # the coarser cubed-factorial form is checked from n = 4 on only;
        # at n = 3 the explicit sum (343) already exceeds (3!)^3 = 216
        assert lar_sum_bound(3) > factorial(3) ** 3


# ---------------------------------------------------------------------------
# the 100-arena framework corpus


@pytest.fixture(scope="module")
def framework_corpus():
    results = {"arenas": 0, "mismatches": [], "reject_reached": [], "muller_mismatches": []}
    for seed in range(1000, 1100):
        n = 2 + seed % 4
        density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
        parity_condition = None
        for kind in ("buchi", "cobuchi", "parity"):
            cfg = GeneratorConfig(n=n, density=density, seed=seed, kind=kind)
            arena, condition = random_game(cfg)
            if kind == "parity":
                parity_condition = condition
            dfa = monitor_for(arena, condition)
            w0, strat = solve_via_safety(arena, condition, dfa)
            zw0, _ = zielonka(arena, encode_as_muller(arena, condition))
            if w0 != zw0:
                results["mismatches"].append((seed, kind))
            if not strategy_keeps_reject_unreachable(arena, dfa, w0, strat):
                results["reject_reached"].append((seed, kind))

        # the Muller monitor route agrees with the quotient construction
        muller = encode_as_muller(arena, parity_condition)
        dfa = muller_monitor(arena, muller)
        w0m, strat = solve_via_safety(arena, muller, dfa)
        red = build_safety_game(arena, muller, tracked_player=1)
        sol = solve_safety(red.game)
        direct = mask_of(v for v in range(n) if sol.w0 & bit(red.embed[v]))
        if w0m != direct:
            results["muller_mismatches"].append(seed)
        if not strategy_keeps_reject_unreachable(arena, dfa, w0m, strat):
            results["reject_reached"].append((seed, "muller"))
        results["arenas"] += 1
    return results


def test_criterion_08_framework_agreement(framework_corpus):
    with criterion(8, "monitor framework matches the oracle; reject stays unreachable"):
        assert framework_corpus["arenas"] == 100
        assert framework_corpus["mismatches"] == []
        assert framework_corpus["muller_mismatches"] == []
        assert framework_corpus["reject_reached"] == []


def test_criterion_09_threshold_two(corpus, example4):
    with criterion(9, "threshold-2 region sound everywhere, strictly smaller on the example"):
        assert corpus["threshold2_failures"] == []
        arena, muller = example4
        red2 = build_safety_game(arena, muller, threshold=2)
        sol2 = solve_safety(red2.game)
        w0_t2 = mask_of(v for v in range(3) if sol2.w0 & bit(red2.embed[v]))
        # the opponent can always force a score of 2 here, so the heuristic
        # finds nothing although the full region is everything
        assert w0_t2 == 0
        assert w0_t2 != m(0, 1, 2)


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "identical invocations produce identical bytes"):
        path = tmp_path / "game.txt"
        path.write_text(EXAMPLE4_GAME_TEXT)
        outputs = {}
        for name, argv in {
            "solve": ["solve", str(path)],
            "reduce": ["reduce", str(path), "--out", "dot"],
            "strategy": ["strategy", str(path)],
            "permissive": ["strategy", str(path), "--kind", "permissive"],
        }.items():
            runs = []
            for _ in range(2):
                assert main(argv) == 0
                runs.append(capsys.readouterr().out)
            outputs[name] = runs
        assert all(a == b for a, b in outputs.values())
