"""Muller and omega-regular games on graphs, solved via score-tracking
safety reductions: quotient construction, antichain and permissive
strategies, a generic monitor-DFA framework, and a recursive oracle.
The file formats and the command line live in ``scoregames.cli``."""

from .arena import (
    Arena,
    BuchiCondition,
    CoBuchiCondition,
    Condition,
    MullerCondition,
    ParityCondition,
    RequestResponseCondition,
    SizeLimitError,
    Word,
    bit,
    enumerate_loops,
    f1_loops,
    is_loop,
    iter_bits,
    mask_of,
    validate,
)
from .scoring import (
    family_of,
    score_step,
    sheet_le,
)
from .reduction import SafetyGame, SafetyReduction, build_safety_game
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
