"""Spans and counts around the public functions of each scoregames layer.

``install`` replaces every module-level binding of a traced function in the
loaded modules, so names other modules imported (for example
``strategy.build_safety_game``, ``cli.solve_muller`` or the benchmark's own
workload code) are traced too.
Coarse functions get a span (name, start, end, parent, operation id); hot
leaf functions only bump a counter, since a span per call would dwarf them.
Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter


def _edges(arena) -> int:
    return sum(len(s) for s in arena.succ)


def _on_build(counts, args, red):
    counts["reduction.calls"] += 1
    counts["reduction.classes"] += red.n_classes
    counts["reduction.edges"] += _edges(red.game.arena)
    counts["reduction.family"] += len(red.family)
    counts["reduction.unsafe_sheets"] += red.unsafe_class_count
    return {"tracked_player": args["tracked_player"], "classes": red.n_classes}


def _on_solve(counts, args, sol):
    arena = args["game"].arena
    counts["safety_solver.vertices"] += arena.n
    counts["safety_solver.edges"] += _edges(arena)


def _on_antichain(counts, args, strat):
    counts["strategy.memory_states"] += len(strat.states) - 1
    counts["strategy.antichain_classes"] += args["red"].n_classes


def _on_permissive(counts, args, strat):
    counts["strategy.permissive_states"] += len(strat.states) - 1


def _on_product(counts, args, prod):
    counts["safety_framework.positions"] += prod.game.arena.n
    counts["safety_framework.product_edges"] += _edges(prod.game.arena)


def _on_loops(counts, args, loops):
    counts["arena.loops"] += len(loops)


def _on_zielonka(counts, args, regions):
    counts["oracle.zielonka_calls"] += 1


def _on_serialize(counts, args, text):
    counts["cli.strategy_bytes"] += len(text.encode())


def _on_parse_strategy(counts, args, strat):
    counts["cli.parsed_bytes"] += len(args["text"].encode())


# (module, function, metric that gets its self time, hook on the bound
# arguments and the result); the span is named module.function
SPANNED = (
    ("arena", "enumerate_loops", "arena.loops_s", _on_loops),
    ("reduction", "build_safety_game", "reduction.build_s", _on_build),
    ("safety_solver", "solve_safety", "safety_solver.solve_s", _on_solve),
    ("safety_solver", "attractor", "safety_solver.solve_s", None),
    ("strategy", "solve_muller", "strategy.solve_muller_s", None),
    ("strategy", "build_antichain_strategy", "strategy.antichain_s", _on_antichain),
    ("strategy", "build_permissive_strategy", "strategy.permissive_s", _on_permissive),
    ("strategy", "verify_bounded_scores", "strategy.verify_s", None),
    ("strategy", "check_subsumption_bounded", "strategy.subsumption_s", None),
    ("strategy", "consistent_product", "strategy.product_s", None),
    ("safety_framework", "product_game", "safety_framework.product_s", _on_product),
    ("safety_framework", "solve_via_safety", "safety_framework.via_s", None),
    ("oracle", "zielonka", "oracle.zielonka_s", _on_zielonka),
    ("oracle", "encode_as_muller", "oracle.encode_s", None),
    ("cli", "main", "cli.main_s", None),
    ("cli", "parse_game", "cli.parse_game_s", None),
    ("cli", "parse_strategy", "cli.parse_strategy_s", _on_parse_strategy),
    ("cli", "serialize_strategy", "cli.serialize_strategy_s", _on_serialize),
)

# hot leaf functions: (module, function, counter)
COUNTED = (
    ("scoring", "sheet_le", "scoring.sheet_le_calls"),
    ("scoring", "entries_step", "scoring.entries_step_calls"),
)


class Tracer:
    """Records spans and counts while ``enabled``; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op, attrs]
        self.counts = Counter()
        self.enabled = False
        self.op = None
        self._stack = []

    def span(self, name: str, fn, hook=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [name, perf_counter(), None, parent, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[5] = hook(self.counts, bound.arguments, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a loaded module binds them."""
        importlib.import_module("scoregames")
        replace = {}
        for module, name, _, hook in SPANNED:
            fn = getattr(importlib.import_module(f"scoregames.{module}"), name)
            replace[id(fn)] = self.span(f"{module}.{name}", fn, hook)
        for module, name, key in COUNTED:
            fn = getattr(importlib.import_module(f"scoregames.{module}"), name)
            replace[id(fn)] = self.counted(key, fn)
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
        from scoregames.safety_framework import MonitorDFA

        MonitorDFA.step = self.counted("safety_framework.monitor_steps", MonitorDFA.step)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: list) -> Counter:
    """Self time per span name: duration minus the time covered by child
    spans.  Parents are the innermost open span, so children nest."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    total = Counter()
    for s, t in zip(spans, own):
        total[s[0]] += t
    return total
