import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames.arena import (
    Arena,
    BuchiCondition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    bit,
    iter_bits,
    mask_of,
    winner,
)
from scoregames.oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from scoregames.reduction import build_safety_game
from scoregames.safety_framework import (
    REJECT,
    MonitorDFA,
    buchi_monitor,
    cobuchi_monitor,
    lasso_accepted_forever,
    monitor_for,
    muller_monitor,
    parity_monitor,
    product_game,
    reachable_states,
    rr_monitor,
    run_dfa,
    solve_via_safety,
)
from scoregames.safety_solver import solve_safety

from conftest import m, random_lasso, word


def test_run_dfa_basics():
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    dfa = buchi_monitor(arena, m(0))
    assert run_dfa(dfa, ()) == dfa.start
    assert run_dfa(dfa, (1, 0)) == 0
    assert run_dfa(dfa, (1, 1)) is REJECT
    assert run_dfa(dfa, (1, 1, 0, 0)) is REJECT  # absorbing
    with pytest.raises(ValueError):
        dfa.step(dfa.start, 5)


def test_buchi_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    dfa = buchi_monitor(arena, m(0))  # k = 1
    assert dfa.is_accepting(run_dfa(dfa, (1, 0)))
    assert not dfa.is_accepting(run_dfa(dfa, (1, 1)))
    assert dfa.is_accepting(run_dfa(dfa, (0,)))
    full = buchi_monitor(arena, arena.full_mask)
    assert dfa.is_accepting(run_dfa(full, (0, 1) * 10))


def test_cobuchi_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0), (1, 1)])
    dfa = cobuchi_monitor(arena, m(1))  # vertex 0 is the bad one
    assert dfa.is_accepting(run_dfa(dfa, word("011")))
    assert not dfa.is_accepting(run_dfa(dfa, word("010")))
    everything = cobuchi_monitor(arena, arena.full_mask)
    assert everything.is_accepting(run_dfa(everything, word("010101")))


def test_parity_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0), (0, 0)])
    dfa = parity_monitor(arena, (1, 0))  # u=0 odd, v=1 even, n_1 = 1
    assert not dfa.is_accepting(run_dfa(dfa, word("00")))
    assert dfa.is_accepting(run_dfa(dfa, word("010")))
    all_even = parity_monitor(arena, (0, 2))
    assert all_even.is_accepting(run_dfa(all_even, word("0101010101")))
    single = Arena.build([0], [(0, 0)])
    odd = parity_monitor(single, (1,))
    assert odd.is_accepting(run_dfa(odd, word("0")))
    assert not odd.is_accepting(run_dfa(odd, word("00")))


def test_parity_monitor_smaller_odd_does_not_reset():
    arena = Arena.build([0, 0, 0], [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])
    dfa = parity_monitor(arena, (3, 1, 0))  # n_3 = n_1 = 1
    # visiting priority 1 does not reset priority 3's counter
    assert run_dfa(dfa, word("010")) is REJECT
    # but the even priority 0 resets both
    assert dfa.is_accepting(run_dfa(dfa, word("0120")))


def test_rr_monitor_language():
    arena = Arena.build([0, 0, 0], [(0, 1), (1, 2), (2, 0), (1, 1)])
    pairs = ((m(0), m(2)),)
    dfa = rr_monitor(arena, pairs)  # k = 3 * 1 * 4 = 12
    # a request kept open for 13 steps rejects
    assert dfa.is_accepting(run_dfa(dfa, (0,) + (1,) * 12))
    assert not dfa.is_accepting(run_dfa(dfa, (0,) + (1,) * 13))
    # no requests: accepted forever
    assert dfa.is_accepting(run_dfa(dfa, (1,) * 30))
    # answered on the next step
    assert dfa.is_accepting(run_dfa(dfa, word("012") * 10))


def test_muller_monitor_language(example4):
    arena, muller = example4
    dfa = muller_monitor(arena, muller)
    assert run_dfa(dfa, word("100101")) is REJECT
    assert dfa.is_accepting(run_dfa(dfa, word("10012100")))
    trivial = muller_monitor(
        arena, MullerCondition(frozenset({m(0), m(2), m(0, 1), m(1, 2), m(0, 1, 2)}))
    )
    assert len(reachable_states(trivial)) == 1


def test_product_with_trivial_monitor(example4):
    arena, _ = example4
    dfa = MonitorDFA(arena.n, 0, lambda q, v: 0)
    prod = product_game(arena, dfa)
    assert prod.game.arena.n == arena.n
    assert prod.game.safe == prod.game.arena.full_mask
    # position v is vertex v's seed
    assert prod.states[: arena.n] == tuple((v, 0) for v in range(arena.n))
    for row in prod.game.arena.succ:
        assert list(row) == sorted(set(row))
    for v in range(arena.n):
        assert prod.game.arena.owner[v] == arena.owner[v]
        assert prod.game.arena.succ[v] == arena.succ[v]
    for i, (v, q) in enumerate(prod.states):
        assert prod.game.arena.names[i] == f"{arena.names[v]}|{q!r}"


def test_product_with_instant_reject(example4):
    arena, condition = example4
    dfa = MonitorDFA(arena.n, 0, lambda q, v: REJECT)
    w0, _ = solve_via_safety(arena, condition, dfa)
    assert w0 == 0


def test_product_isomorphic_to_reduction(example4):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    prod = product_game(arena, muller_monitor(arena, muller))
    # safe product states correspond one-to-one to safe quotient classes,
    # looked up through the classes' decoded sheets
    classes = {sheet.key(): c for c, sheet in enumerate(red.sheets) if sheet is not None}
    mapping = {}
    for i, (v, q) in enumerate(prod.states):
        if q is REJECT:
            continue
        cls = classes[v, q]
        assert cls not in mapping.values()
        mapping[i] = cls
    assert len(mapping) == 19
    # edges agree (collapsing everything unsafe)
    sink = red.sink
    for i, cls in mapping.items():
        prod_targets = {
            mapping.get(t, sink) for t in prod.game.arena.succ[i]
        }
        red_targets = set(red.game.arena.succ[cls])
        assert prod_targets == red_targets


@pytest.mark.parametrize("kind", ["buchi", "cobuchi", "parity", "rr"])
def test_next_move_follows_the_product_strategy(kind):
    for seed in range(1000, 1012):
        density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
        cfg = GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind)
        arena, condition = random_game(cfg)
        dfa = monitor_for(arena, condition)
        prod = product_game(arena, dfa)
        sol = solve_safety(prod.game)
        position = {node: i for i, node in enumerate(prod.states)}
        _, strat = solve_via_safety(arena, condition, dfa)
        # one entry per Player-0 position, in position order
        assert list(strat.next_move) == [node for node in prod.states if arena.owner[node[0]] == 0]
        for (v, q), move in strat.next_move.items():
            pid = position[v, q]
            if sol.w0 & bit(pid):
                assert move == (prod.states[sol.strategy0[pid]][0],)
            else:
                assert move == arena.succ[v][:1]


@pytest.mark.parametrize("kind", ["buchi", "cobuchi", "parity", "rr", "muller"])
def test_every_play_stays_on_the_product(kind):
    # from every vertex, along every arena edge (not only the strategy's
    # moves), the tables answer every lookup and the pairs reached are
    # exactly the product's positions; the tables hold nothing else
    for seed in range(1000, 1012):
        density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
        cfg = GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind)
        arena, condition = random_game(cfg)
        dfa = monitor_for(arena, condition)
        _, strat = solve_via_safety(arena, condition, dfa)
        reached = {(v, strat.initial(v)) for v in range(arena.n)}
        stack = list(reached)
        while stack:
            u, q = stack.pop()
            if arena.owner[u] == 0:
                assert set(strat.moves(u, q)) <= set(arena.succ[u])
            for v in arena.succ[u]:
                child = (v, strat.step(q, v))
                if child not in reached:
                    reached.add(child)
                    stack.append(child)
        assert reached == set(product_game(arena, dfa).states)
        assert set(strat.next_move) == {(u, q) for u, q in reached if arena.owner[u] == 0}
        assert set(strat.update) == {(q, v) for u, q in reached for v in arena.succ[u]}


def test_solve_via_safety_buchi_alternation():
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    condition = BuchiCondition(m(0))
    w0, strat = solve_via_safety(arena, condition, buchi_monitor(arena, m(0)))
    assert w0 == m(0, 1)
    assert strat.moves(0, strat.initial(0)) == (1,)


def test_solve_via_safety_parity_self_loop():
    arena = Arena.build([0], [(0, 0)])
    w0, _ = solve_via_safety(arena, ParityCondition((1,)), parity_monitor(arena, (1,)))
    assert w0 == 0
    w0, _ = solve_via_safety(arena, ParityCondition((0,)), parity_monitor(arena, (0,)))
    assert w0 == m(0)


def test_solve_via_safety_muller_example4(example4):
    arena, muller = example4
    w0, strat = solve_via_safety(arena, muller, muller_monitor(arena, muller))
    assert w0 == m(0, 1, 2)
    red = build_safety_game(arena, muller)
    sol = solve_safety(red.game)
    embedded = mask_of(v for v in range(3) if sol.w0 & bit(red.embed[v]))
    assert w0 == embedded


def strategy_keeps_reject_unreachable(arena, dfa, w0, strat):
    seen = set()
    queue = []
    for v in iter_bits(w0):
        node = (v, strat.initial(v))
        seen.add(node)
        queue.append(node)
    while queue:
        v, q = queue.pop()
        if q is REJECT:
            return False
        targets = strat.moves(v, q) if arena.owner[v] == 0 else arena.succ[v]
        for u in targets:
            child = (u, dfa.step(q, u))
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return True


def test_solve_via_safety_request_response_hand_analyzed():
    # 0 requests, the middle vertex decides, 2 responds
    pairs = ((m(0), m(2)),)
    responder = Arena.build([1, 0, 1], [(0, 1), (1, 0), (1, 2), (2, 0)])
    dfa = rr_monitor(responder, pairs)
    w0, strat = solve_via_safety(responder, RequestResponseCondition(pairs), dfa)
    assert w0 == m(0, 1, 2)
    assert strategy_keeps_reject_unreachable(responder, dfa, w0, strat)

    # same graph, but the opponent decides and can starve the response
    starver = Arena.build([1, 1, 1], [(0, 1), (1, 0), (1, 2), (2, 0)])
    w0, _ = solve_via_safety(
        starver, RequestResponseCondition(pairs), rr_monitor(starver, pairs)
    )
    assert w0 == 0

    # a vertex that answers and immediately re-requests keeps its own loop alive
    both = Arena.build([0], [(0, 0)])
    selfpairs = ((m(0), m(0)),)
    w0, _ = solve_via_safety(
        both, RequestResponseCondition(selfpairs), rr_monitor(both, selfpairs)
    )
    assert w0 == m(0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["buchi", "cobuchi", "parity"]))
def test_framework_matches_oracle(seed, kind):
    cfg = GeneratorConfig(n=2 + seed % 4, density=0.55, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    dfa = monitor_for(arena, condition)
    w0, strat = solve_via_safety(arena, condition, dfa)
    zw0, _ = zielonka(arena, encode_as_muller(arena, condition))
    assert w0 == zw0
    assert strategy_keeps_reject_unreachable(arena, dfa, w0, strat)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["buchi", "cobuchi", "parity", "rr", "muller"]),
)
def test_monitor_prefix_closure(seed, kind):
    cfg = GeneratorConfig(n=2 + seed % 4, density=0.6, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    dfa = monitor_for(arena, condition)
    rng = random.Random(seed)
    w = tuple(rng.randrange(arena.n) for _ in range(rng.randrange(1, 12)))
    if dfa.is_accepting(run_dfa(dfa, w)):
        q = dfa.start
        for v in w:
            q = dfa.step(q, v)
            assert dfa.is_accepting(q)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(["buchi", "cobuchi", "parity", "rr", "muller"]),
)
def test_forever_accepted_lassos_are_winning(seed, kind):
    cfg = GeneratorConfig(n=2 + seed % 4, density=0.6, seed=seed, kind=kind)
    arena, condition = random_game(cfg)
    dfa = monitor_for(arena, condition)
    lasso = random_lasso(arena, random.Random(seed ^ 0xC0FFEE))
    if lasso_accepted_forever(dfa, lasso):
        assert winner(arena, condition, lasso) == 0
