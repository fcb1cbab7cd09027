"""The games each workload runs on, the library operations of one pass, and
the correctness gate of each operation.

Every workload is a fixed list of generator games (see README.md for why
each was chosen).  The workload seed relabels their vertices: seed 0 gives
the generator's games exactly, any other seed a seeded random vertex
permutation of each.  Relabelled games are isomorphic, so quotient sizes and
all other invariant work stay the same while the vertex order, class
numbering and output bytes change.
"""
from __future__ import annotations

import random

from scoregames.arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    bit,
    iter_bits,
    mask_of,
)
from scoregames.oracle import GeneratorConfig, encode_as_muller, random_game, zielonka
from scoregames.reduction import build_safety_game
from scoregames.safety_framework import REJECT, monitor_for, muller_monitor, solve_via_safety
from scoregames.safety_solver import solve_safety
from scoregames.strategy import (
    BOTTOM,
    build_antichain_strategy,
    build_permissive_strategy,
    check_subsumption_bounded,
    consistent_product,
    verify_bounded_scores,
)

DEFAULT_SEED = 0

# workload -> (kind of operation, generator seeds)
WORKLOADS = {
    "solve_heavy": ("cli", (107, 159, 95)),
    "certify": ("library", (127, 31, 47)),
    "strategy_files": ("cli", (7, 11, 91, 131)),
    "monitor_products": ("library", tuple(range(1000, 1100))),
}
FRAMEWORK_KINDS = ("buchi", "cobuchi", "parity", "rr")


def corpus_config(seed: int) -> GeneratorConfig:
    """The acceptance corpus generator (``corpus_config`` in the acceptance
    tests)."""
    n = 3 + seed % 4
    if n < 6:
        density = (0.25, 0.45, 0.65, 0.85)[(seed // 4) % 4]
    else:
        density = (0.25, 0.4, 0.55, 0.7)[(seed // 4) % 4]
    return GeneratorConfig(n=n, density=density, seed=seed, kind="muller")


def framework_config(seed: int, kind: str) -> GeneratorConfig:
    """The framework corpus of the acceptance tests, plus one request-response
    game per seed at n = 6 + seed % 5 and density 0.25."""
    if kind == "rr":
        return GeneratorConfig(n=6 + seed % 5, density=0.25, seed=seed, kind="rr")
    density = (0.3, 0.5, 0.7, 0.9)[(seed // 4) % 4]
    return GeneratorConfig(n=2 + seed % 4, density=density, seed=seed, kind=kind)


def _map_mask(mask: int, perm: list) -> int:
    return mask_of(perm[v] for v in iter_bits(mask))


def relabel(arena: Arena, condition, perm: list) -> tuple:
    """The isomorphic game in which vertex ``v`` becomes ``perm[v]``."""
    owner = [0] * arena.n
    for v in range(arena.n):
        owner[perm[v]] = arena.owner[v]
    edges = [(perm[u], perm[v]) for u, v in arena.edges()]
    if isinstance(condition, MullerCondition):
        condition = MullerCondition(frozenset(_map_mask(s, perm) for s in condition.f0))
    elif isinstance(condition, BuchiCondition):
        condition = BuchiCondition(_map_mask(condition.target, perm))
    elif isinstance(condition, CoBuchiCondition):
        condition = CoBuchiCondition(_map_mask(condition.persistent, perm))
    elif isinstance(condition, ParityCondition):
        priority = [0] * arena.n
        for v, p in enumerate(condition.priority):
            priority[perm[v]] = p
        condition = ParityCondition(tuple(priority))
    elif isinstance(condition, RequestResponseCondition):
        condition = RequestResponseCondition(
            tuple((_map_mask(q, perm), _map_mask(p, perm)) for q, p in condition.pairs)
        )
    else:
        raise TypeError(f"cannot relabel a {type(condition).__name__}")
    return Arena.build(owner, edges), condition


def generate(workload: str, seed: int) -> list:
    """The workload's games for ``seed``, as (name, arena, condition)."""
    _, gen_seeds = WORKLOADS[workload]
    if workload == "monitor_products":
        configs = [
            (f"f{s}-{kind}", framework_config(s, kind))
            for s in gen_seeds
            for kind in FRAMEWORK_KINDS
        ]
    else:
        configs = [(f"c{s}", corpus_config(s)) for s in gen_seeds]
    rng = random.Random(seed)
    games = []
    for name, cfg in configs:
        arena, condition = random_game(cfg)
        perm = list(range(arena.n))
        if seed != DEFAULT_SEED:
            rng.shuffle(perm)
        games.append((name, *relabel(arena, condition, perm)))
    return games


# ---------------------------------------------------------------------------
# library operations: each returns the facts its gate needs and its work
# counts, split into those a relabelling keeps and those it may change


def _region(red, sol, n: int) -> int:
    return mask_of(v for v in range(n) if sol.w0 & bit(red.embed[v]))


def _reduction_counts(red) -> dict:
    quotient = red.game.arena
    return {
        "classes": red.n_classes,
        "edges": sum(len(s) for s in quotient.succ),
        "family": len(red.family),
        "unsafe_sheets": red.unsafe_class_count,
    }


def certify_op(arena: Arena, muller: MullerCondition) -> tuple:
    """Both reductions and solves, the Zielonka cross-check, antichain
    strategies for both players with their certificates, and the permissive
    strategy with its certificate and the subsumption check."""
    n = arena.n
    red1 = build_safety_game(arena, muller, tracked_player=1)
    sol1 = solve_safety(red1.game)
    red0 = build_safety_game(arena, muller, tracked_player=0)
    sol0 = solve_safety(red0.game)
    w0, w1 = _region(red1, sol1, n), _region(red0, sol0, n)
    facts = {"regions": (w0, w1), "oracle": zielonka(arena, muller), "full": arena.full_mask}
    invariant = {"p1_side": _reduction_counts(red1), "p0_side": _reduction_counts(red0)}
    # the positional strategies pick the lowest-numbered class, so the
    # antichain sizes depend on the class numbering
    seeded = {"memory_states": [], "product_nodes": []}

    verified = []
    products = []
    antichains = []
    for red, sol, start in ((red1, sol1, w0), (red0, sol0, w1)):
        strat = build_antichain_strategy(red, sol)
        antichains.append(strat)
        seeded["memory_states"].append(len(strat.states) - 1)
        if start:
            verified.append(verify_bounded_scores(arena, muller, strat, start, 2)[0])
            product = consistent_product(arena, strat, start)
            products.append(product)
            seeded["product_nodes"].append(len(product.nodes))

    perm = build_permissive_strategy(red1, sol1)
    invariant["permissive_states"] = len(perm.states) - 1
    subsumed = []
    if w0:
        verified.append(verify_bounded_scores(arena, muller, perm, w0, 2)[0])
        for v in iter_bits(w0):
            subsumed.append(check_subsumption_bounded(arena, muller, antichains[0], perm, v, 20))
    facts.update(verified=verified, products=products, subsumed=subsumed)
    return facts, {"invariant": invariant, "seeded": seeded}


def gate_certify(facts: dict) -> list:
    problems = []
    w0, w1 = facts["regions"]
    if (w0, w1) != facts["oracle"]:
        problems.append("regions differ from zielonka")
    if w0 & w1 or w0 | w1 != facts["full"]:
        problems.append("regions do not partition the vertices")
    if not all(facts["verified"]):
        problems.append("a strategy fails verify_bounded_scores(..., 2)")
    if any(m is BOTTOM for product in facts["products"] for _, m in product.nodes):
        problems.append("BOTTOM is reachable under an antichain strategy")
    if not all(facts["subsumed"]):
        problems.append("the permissive strategy does not subsume the antichain one")
    return problems


def _reject_unreachable(arena: Arena, dfa, w0: int, strat) -> bool:
    """No play from ``w0`` consistent with ``strat`` reaches REJECT."""
    seen = set()
    stack = [(v, strat.initial(v)) for v in iter_bits(w0)]
    seen.update(stack)
    while stack:
        v, q = stack.pop()
        if q is REJECT:
            return False
        targets = strat.moves(v, q) if arena.owner[v] == 0 else arena.succ[v]
        for u in targets:
            child = (u, dfa.step(q, u))
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return True


def monitor_op(games: dict) -> tuple:
    """One framework seed: the Büchi, co-Büchi and parity monitors with the
    Zielonka oracle, the Muller-monitor route next to the quotient, and one
    request-response game."""
    solved = {}
    counts = {}
    for kind in ("buchi", "cobuchi", "parity"):
        arena, condition = games[kind]
        dfa = monitor_for(arena, condition)
        w0, strat = solve_via_safety(arena, condition, dfa)
        oracle_w0, _ = zielonka(arena, encode_as_muller(arena, condition))
        solved[kind] = (arena, dfa, w0, strat, oracle_w0)
        counts[f"{kind}_states"] = len(strat.states)

    arena, parity = games["parity"]
    muller = encode_as_muller(arena, parity)
    dfa = muller_monitor(arena, muller)
    w0, strat = solve_via_safety(arena, muller, dfa)
    red = build_safety_game(arena, muller, tracked_player=1)
    direct = _region(red, solve_safety(red.game), arena.n)
    solved["muller"] = (arena, dfa, w0, strat, direct)
    counts["muller_states"] = len(strat.states)
    counts["quotient"] = _reduction_counts(red)

    arena, rr = games["rr"]
    dfa = monitor_for(arena, rr)
    w0, strat = solve_via_safety(arena, rr, dfa)
    solved["rr"] = (arena, dfa, w0, strat, None)
    counts["rr_states"] = len(strat.states)
    return solved, {"invariant": counts, "seeded": {}}


def gate_monitor(solved: dict) -> list:
    problems = []
    for kind, (arena, dfa, w0, strat, expected) in solved.items():
        if expected is not None and w0 != expected:
            other = "the quotient" if kind == "muller" else "zielonka"
            problems.append(f"{kind}: region differs from {other}")
        if not _reject_unreachable(arena, dfa, w0, strat):
            problems.append(f"{kind}: REJECT is reachable under the strategy")
    return problems
