"""Muller and omega-regular games on graphs, solved via score-tracking
safety reductions: quotient construction, antichain and permissive
strategies, a generic monitor-DFA framework, and a recursive oracle.
The file formats and the command line live in ``scoregames.cli``."""

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    Lasso,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
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
    winner,
)
from .scoring import (
    ScoreSheet,
    ScoreState,
    family_of,
    lar_of,
    maxscore,
    score_step,
    score_word,
    sheet_le,
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
    solve_via_safety,
)
from .oracle import GeneratorConfig, encode_as_muller, random_game, zielonka

__version__ = "0.1.0"
