import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoregames import safety_framework
from scoregames.arena import (
    Arena,
    BuchiCondition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    bit,
    mask_of,
)
from scoregames.oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from scoregames.reduction import build_safety_game
from scoregames.safety_framework import (
    REJECT,
    MonitorDFA,
    buchi_monitor,
    cobuchi_monitor,
    monitor_for,
    muller_monitor,
    parity_monitor,
    product_game,
    reachable_states,
    rr_monitor,
    solve_via_safety,
)
from scoregames.safety_solver import solve_safety
from scoregames.scoring import AT_CAP, ZERO, CodeTable

from reference import class_sheet, decode, lasso_accepted_forever, run, winner
from conftest import m, random_lasso, strategy_keeps_reject_unreachable, word
from test_acceptance import corpus_config


def test_run_dfa_basics():
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    dfa = buchi_monitor(arena, m(0))
    assert run(dfa, ()) == dfa.start
    assert run(dfa, (1, 0)) == 0
    assert run(dfa, (1, 1)) is REJECT
    assert run(dfa, (1, 1, 0, 0)) is REJECT  # absorbing
    with pytest.raises(ValueError):
        dfa.step(dfa.start, 5)


def test_buchi_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0)])
    dfa = buchi_monitor(arena, m(0))  # k = 1
    assert dfa.is_accepting(run(dfa, (1, 0)))
    assert not dfa.is_accepting(run(dfa, (1, 1)))
    assert dfa.is_accepting(run(dfa, (0,)))
    full = buchi_monitor(arena, arena.full_mask)
    assert dfa.is_accepting(run(full, (0, 1) * 10))


def test_cobuchi_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0), (1, 1)])
    dfa = cobuchi_monitor(arena, m(1))  # vertex 0 is the bad one
    assert dfa.is_accepting(run(dfa, word("011")))
    assert not dfa.is_accepting(run(dfa, word("010")))
    everything = cobuchi_monitor(arena, arena.full_mask)
    assert everything.is_accepting(run(everything, word("010101")))


def test_parity_monitor_language():
    arena = Arena.build([0, 0], [(0, 1), (1, 0), (0, 0)])
    dfa = parity_monitor(arena, (1, 0))  # u=0 odd, v=1 even, n_1 = 1
    assert not dfa.is_accepting(run(dfa, word("00")))
    assert dfa.is_accepting(run(dfa, word("010")))
    all_even = parity_monitor(arena, (0, 2))
    assert all_even.is_accepting(run(all_even, word("0101010101")))
    single = Arena.build([0], [(0, 0)])
    odd = parity_monitor(single, (1,))
    assert odd.is_accepting(run(odd, word("0")))
    assert not odd.is_accepting(run(odd, word("00")))


def test_parity_monitor_smaller_odd_does_not_reset():
    arena = Arena.build([0, 0, 0], [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)])
    dfa = parity_monitor(arena, (3, 1, 0))  # n_3 = n_1 = 1
    # visiting priority 1 does not reset priority 3's counter
    assert run(dfa, word("010")) is REJECT
    # but the even priority 0 resets both
    assert dfa.is_accepting(run(dfa, word("0120")))


def test_rr_monitor_language():
    arena = Arena.build([0, 0, 0], [(0, 1), (1, 2), (2, 0), (1, 1)])
    pairs = ((m(0), m(2)),)
    dfa = rr_monitor(arena, pairs)  # k = 3 * 1 * 4 = 12
    # a request kept open for 13 steps rejects
    assert dfa.is_accepting(run(dfa, (0,) + (1,) * 12))
    assert not dfa.is_accepting(run(dfa, (0,) + (1,) * 13))
    # no requests: accepted forever
    assert dfa.is_accepting(run(dfa, (1,) * 30))
    # answered on the next step
    assert dfa.is_accepting(run(dfa, word("012") * 10))


def test_muller_monitor_language(example4):
    arena, muller = example4
    dfa = muller_monitor(arena, muller)
    assert run(dfa, word("100101")) is REJECT
    assert dfa.is_accepting(run(dfa, word("10012100")))
    # rows[i][v] numbers state i's successor under letter v
    states, rows = reachable_states(dfa)
    assert states[0] == dfa.start and len(set(states)) == len(states) == len(rows)
    for q, row in zip(states, rows):
        assert [states[j] for j in row] == [dfa.step(q, v) for v in range(arena.n)]
    trivial = muller_monitor(
        arena, MullerCondition(frozenset({m(0), m(2), m(0, 1), m(1, 2), m(0, 1, 2)}))
    )
    assert reachable_states(trivial) == ((trivial.start,), [(0, 0, 0)])


@pytest.fixture
def code_tables(monkeypatch):
    """The code tables the safety framework's monitors make, in order."""
    tables = []

    def kept(*args):
        tables.append(CodeTable(*args))
        return tables[-1]

    monkeypatch.setattr(safety_framework, "CodeTable", kept)
    return tables


@pytest.mark.parametrize("seed", [5, 10, 14])
def test_muller_monitor_states_share_their_pairs(seed, code_tables):
    # the monitor's states are strings of its one code table, which gives
    # each distinct (set, score, acc) of its reachable states one code; the
    # non-ZERO pairs they decode to repeat across states
    arena, muller = random_game(corpus_config(seed))
    states, _ = reachable_states(muller_monitor(arena, muller))
    (table,) = code_tables
    sheets = [q for q in states if q is not REJECT]
    assert all(type(q) is str and AT_CAP not in q for q in sheets)
    pairs = [p for q in sheets for p in decode(table, q) if p != ZERO]
    assert len(pairs) > len(set(pairs)) > 1
    cells = {(i, p) for q in sheets for i, p in enumerate(decode(table, q))}
    assert len({ch for q in sheets for ch in q}) == len(cells)


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


def test_product_isomorphic_to_reduction(example4, code_tables):
    arena, muller = example4
    red = build_safety_game(arena, muller)
    prod = product_game(arena, muller_monitor(arena, muller))
    (table,) = code_tables
    # safe product states correspond one-to-one to safe quotient classes,
    # looked up through the classes' decoded keys
    classes = {class_sheet(red, c): c for c in range(red.n_classes) if c != red.sink}
    mapping = {}
    for i, (v, q) in enumerate(prod.states):
        if q is REJECT:
            continue
        cls = classes[v, decode(table, q)]
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


def set_cells(strat) -> tuple:
    """The entries the strategy's ``update`` and move tables define, read
    through ``table_entries`` and labelled: (state, vertex, next state) and
    (state, vertex, move)."""
    _, update, moves = strat.table_entries()
    states = strat.states
    return (
        [(states[i], v, states[j]) for (i, v), j in update],
        [(states[i], v, move) for (v, i), move in moves],
    )


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
        # one entry per Player-0 position
        _, entries = set_cells(strat)
        owned = [node for node in prod.states if arena.owner[node[0]] == 0]
        assert len(entries) == len(owned)
        assert {(v, q) for q, v, _ in entries} == set(owned)
        for q, v, move in entries:
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
        # every set cell is exactly a product pair; the labels are distinct
        assert len(set(strat.states)) == len(strat.states)
        update_cells, move_cells = set_cells(strat)
        moves = {(v, q) for q, v, _ in move_cells}
        assert moves == {(u, q) for u, q in reached if arena.owner[u] == 0}
        updates = {(q, v) for q, v, _ in update_cells}
        assert updates == {(q, v) for u, q in reached for v in arena.succ[u]}


def test_monitor_strategy_shares_the_product_states(monkeypatch):
    # the state labels are the product's own state objects, not the equal
    # copies that the monitor steps return
    products = []

    def kept_product(*args, **kwargs):
        products.append(product_game(*args, **kwargs))
        return products[-1]

    monkeypatch.setattr(safety_framework, "product_game", kept_product)
    for kind in ("buchi", "cobuchi", "parity", "rr", "muller"):
        for seed in range(1000, 1012):
            density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
            cfg = GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind)
            arena, condition = random_game(cfg)
            _, strat = solve_via_safety(arena, condition, monitor_for(arena, condition))
            objects = {id(q) for _, q in products[-1].states}
            assert all(id(q) in objects for q in strat.states)

    # framework seed 1003's Muller route (the parity game through the Muller
    # monitor): the tables hold state numbers and the labels are the
    # product's own states, so they keep less than the product does (0.84
    # times; 1.43 with dict tables keyed by the product's edges, 4.03 when
    # every update also held a fresh copy of its state)
    monkeypatch.undo()
    arena, parity = random_game(GeneratorConfig(n=5, density=0.7, seed=1003, kind="parity"))
    muller = encode_as_muller(arena, parity)
    dfa = muller_monitor(arena, muller)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prod = product_game(arena, dfa)
        gc.collect()
        product = tracemalloc.get_traced_memory()[0] - base
        del prod
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        _, strat = solve_via_safety(arena, muller, dfa)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(strat.states) > 1
    assert kept <= 2 * product


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


def rr_regions_by_buchi(arena, pairs):
    """Player 0's region of a request-response game, solved as a Buchi game
    with no monitor: a position is (vertex, pending pairs, awaited pair).

    Entering a vertex first answers the pairs whose response set holds it
    and then opens the pairs whose request set holds it; the first vertex
    of a play counts.  Pair j is served at (v, P) when j is not pending or
    v answers it (v may also have opened j again).  A play wins iff every
    pair is served infinitely often, so the awaited pair moves on round
    robin when served, and the Buchi positions are those where the last
    pair is served."""
    r = len(pairs)

    def enter(pending, v):
        for j, (req, resp) in enumerate(pairs):
            if resp >> v & 1:
                pending &= ~(1 << j)
            if req >> v & 1:
                pending |= 1 << j
        return pending

    def served(v, pending, j):
        return not pending >> j & 1 or pairs[j][1] >> v & 1

    starts = {v: (v, enter(0, v), 0) for v in range(arena.n)}
    succ, todo = {}, list(starts.values())
    while todo:
        pos = todo.pop()
        if pos in succ:
            continue
        v, pending, j = pos
        nxt = (j + 1) % r if served(v, pending, j) else j
        succ[pos] = [(u, enter(pending, u), nxt) for u in arena.succ[v]]
        todo += succ[pos]
    buchi = {(v, p, j) for v, p, j in succ if j == r - 1 and served(v, p, j)}

    def attractor(player, target, alive):
        # positions of ``alive`` from which ``player`` forces a visit to
        # ``target``, every play kept inside ``alive``
        attr = set(target & alive)
        changed = True
        while changed:
            changed = False
            for pos in alive - attr:
                inside = [t for t in succ[pos] if t in alive]
                hits = [t in attr for t in inside]
                if any(hits) if arena.owner[pos[0]] == player else all(hits):
                    attr.add(pos)
                    changed = True
        return attr

    alive = set(succ)
    while True:
        lost = alive - attractor(0, buchi, alive)
        if not lost:
            break
        alive -= attractor(1, lost, alive)
    return mask_of(v for v, pos in starts.items() if pos in alive)


def test_rr_regions_match_a_buchi_solver():
    # request-response has no oracle of its own: compare the monitor route
    # with a Buchi game solved from scratch, on the monitor_products games
    # (n = 6..10, density 0.25) and on criterion 8's small arenas
    kinds = {"mixed": 0, "full": 0, "empty": 0}
    for seed in range(1000, 1100):
        density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
        for n, d in ((6 + seed % 5, 0.25), (2 + seed % 4, density)):
            arena, rr = random_game(GeneratorConfig(n=n, density=d, seed=seed, kind="rr"))
            w0, _ = solve_via_safety(arena, rr, rr_monitor(arena, rr.pairs))
            assert w0 == rr_regions_by_buchi(arena, rr.pairs), (seed, n)
            kinds["full" if w0 == arena.full_mask else "mixed" if w0 else "empty"] += 1
    assert kinds == {"mixed": 86, "full": 79, "empty": 35}


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
    if dfa.is_accepting(run(dfa, w)):
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
