"""Muller and omega-regular games on graphs, solved via score-tracking
safety reductions: quotient construction, antichain and permissive
strategies, a generic monitor-DFA framework, and a recursive oracle."""

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    Lasso,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    SafetyCondition,
    SizeLimitError,
    Word,
    bit,
    enumerate_loops,
    f1_loops,
    infi,
    is_loop,
    iter_bits,
    mask_of,
    occ,
    swap_roles,
    validate,
    vertices_of,
    winner,
)
from .scoring import (
    ScoreSheet,
    ScoreState,
    family_of,
    lar_of,
    lar_update,
    maxscore,
    score_step,
    score_word,
    sheet_init,
    sheet_le,
    sheet_terminal,
    sheet_update,
)
from .reduction import SafetyGame, SafetyReduction, build_safety_game, lar_sum_bound
from .safety_solver import SafetySolution, attractor, solve_safety
from .strategy import (
    BOTTOM,
    FiniteStateStrategy,
    MullerSolution,
    StrategyProduct,
    build_antichain_strategy,
    build_permissive_strategy,
    check_subsumption_bounded,
    consistent_product,
    solve_muller,
    verify_bounded_scores,
)
from .safety_framework import (
    MonitorDFA,
    ProductGame,
    REJECT,
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
from .oracle import GeneratorConfig, encode_as_muller, random_game, zielonka

__version__ = "0.1.0"

# the file formats live in ``cli``, which is imported on first use, so that
# ``python -m scoregames.cli`` runs it once, as ``__main__``
_CLI_NAMES = frozenset(
    (
        "GameParseError",
        "export_dot",
        "parse_game",
        "parse_strategy",
        "serialize_game",
        "serialize_strategy",
    )
)


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
