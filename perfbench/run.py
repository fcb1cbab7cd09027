"""The scoregames benchmark: one workload per invocation.

    python3 perfbench/run.py --workload solve_heavy --seed 0 --seconds 20 --trace 0

A single closed-loop client runs one operation at a time.  CLI workloads
start one ``python -m scoregames`` process per command; library workloads run
each pass in one child process.  With ``--trace 0`` the run repeats passes
for about ``--seconds`` and reports end-to-end metrics (medians over the
passes); with ``--trace 1`` it runs one untraced and one traced pass and
reports per-layer metrics.  Every operation is checked after its clock
stops.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 15
# ROADMAP baselines: classes of one reduction, by (game, tracked player)
ROADMAP_CLASSES = {("c159", 0): 136_683, ("c107", 1): 101_127}
# traced counts a relabelling of the games keeps
INVARIANT_COUNTS = (
    "arena.loops",
    "reduction.calls",
    "reduction.classes",
    "reduction.edges",
    "reduction.family",
    "reduction.unsafe_sheets",
    "safety_solver.vertices",
    "safety_solver.edges",
    "strategy.antichain_classes",
    "strategy.permissive_states",
    "safety_framework.positions",
    "safety_framework.product_edges",
    "safety_framework.monitor_steps",
    "oracle.zielonka_calls",
)
COUNT_METRICS = (
    "arena.loops",
    "scoring.sheet_le_calls",
    "scoring.entries_step_calls",
    "reduction.calls",
    "reduction.classes",
    "reduction.edges",
    "reduction.family",
    "reduction.unsafe_sheets",
    "safety_solver.vertices",
    "safety_solver.edges",
    "strategy.memory_states",
    "strategy.permissive_states",
    "safety_framework.positions",
    "safety_framework.product_edges",
    "safety_framework.monitor_steps",
    "oracle.zielonka_calls",
    "cli.strategy_bytes",
)
# rate metric -> (count, time metric, unit)
RATE_METRICS = {
    "reduction.classes_per_s": ("reduction.classes", "reduction.build_s", "1/s"),
    "safety_solver.vertices_per_s": ("safety_solver.vertices", "safety_solver.solve_s", "1/s"),
    "safety_framework.positions_per_s": (
        "safety_framework.positions",
        "safety_framework.product_s",
        "1/s",
    ),
    "cli.parse_bytes_per_s": ("cli.parsed_bytes", "cli.parse_strategy_s", "B/s"),
}
PROCESS_START = "cli.process_start"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Child:
    spawned: float
    seconds: float
    cpu: float
    max_rss_kib: int
    code: int


@dataclass
class Pass:
    wall: float
    cpu: float
    peak_rss_kib: int
    ops: list  # {"op", "problems", "counts"}
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list, stdout: Path, stderr: Path) -> Child:
    """Run one child to completion; wall time from spawn to reaped exit, CPU
    and peak RSS from its rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(t0, t1 - t0, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


def tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")[-2000:]


def set_up(workload: str, seed: int, work: Path) -> tuple:
    """Generate and write the games SETUP_REPEATS times, each in a fresh
    process; returns the median set-up time and the manifest."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(CHILD), "setup", workload, str(seed), str(work)]
        child = spawn(cmd, work / "setup.out", work / "setup.err")
        if child.code != 0:
            raise BenchError(f"setup exited with {child.code}:\n{tail(work / 'setup.err')}")
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        times.append(manifest["seconds"])
    return statistics.median(times), manifest


# ---------------------------------------------------------------------------
# CLI workloads


def cli_ops(workload: str, names: list, work: Path) -> list:
    """(operation, scoregames arguments, stdout file) in pass order."""
    games = work / "games"
    ops = []
    for name in names:
        game = str(games / f"{name}.txt")
        if workload == "solve_heavy":
            ops.append((f"solve {name}", ["solve", game], work / f"{name}.solve.out"))
            continue
        for kind in ("antichain", "permissive"):
            strat = work / f"{name}.{kind}.txt"
            ops.append((f"strategy {kind} {name}", ["strategy", game, "--kind", kind], strat))
        for kind in ("antichain", "permissive"):
            strat = str(work / f"{name}.{kind}.txt")
            ops.append((f"verify {kind} {name}", ["verify", game, strat], work / "verify.out"))
    return ops


def parse_region(line: str, prefix: str, arena) -> int:
    """The vertex set printed as ``prefix{a,b,...}``."""
    if not (line.startswith(prefix + "{") and line.endswith("}")):
        raise ValueError(f"expected {prefix}{{...}}, got {line!r}")
    body = line[len(prefix) + 1 : -1]
    return sum(1 << arena.index(nm) for nm in body.split(",") if nm)


class CliGate:
    """Checks each command's exit code and stdout after its clock stops."""

    def __init__(self, work: Path):
        self.work = work
        self.oracle = {}

    def regions(self, name: str) -> tuple:
        if not self.oracle:
            from child import load_games
            from scoregames.oracle import zielonka

            for game, (arena, muller) in load_games(self.work).items():
                self.oracle[game] = arena, zielonka(arena, muller)
        return self.oracle[name]

    def __call__(self, op: str, code: int, stdout: bytes) -> list:
        if code != 0:
            return [f"exit code {code}"]
        lines = stdout.decode().splitlines()
        if op.startswith("strategy "):
            return [] if lines and lines[0].startswith("player ") else ["not a strategy file"]
        arena, (w0, w1) = self.regions(op.split()[-1])
        try:
            if op.startswith("solve "):
                if len(lines) != 2:
                    return ["solve prints two lines"]
                got = (parse_region(lines[0], "W0 = ", arena), parse_region(lines[1], "W1 = ", arena))
                return [] if got == (w0, w1) else ["regions differ from zielonka"]
            # both strategy kinds are Player 0's, verified from her region
            if len(lines) != 1:
                return [f"verify prints {len(lines)} lines"]
            start = parse_region(lines[0], "verified: scores bounded by 2 from ", arena)
            return [] if start == w0 else ["verified region differs from zielonka"]
        except (ValueError, KeyError) as exc:
            return [f"unexpected output: {exc}"]


def cli_pass(ops: list, work: Path, gate: CliGate, traced: bool) -> Pass:
    result = Pass(0.0, 0.0, 0, [])
    for index, (name, argv, stdout) in enumerate(ops):
        spans_file = work / f"spans-{index}.json"
        if traced:
            cmd = [sys.executable, str(CHILD), "cli", str(spans_file), str(index), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "scoregames", *argv]
        child = spawn(cmd, stdout, work / "cli.err")
        result.wall += child.seconds
        result.cpu += child.cpu
        result.peak_rss_kib = max(result.peak_rss_kib, child.max_rss_kib)
        data = stdout.read_bytes()
        problems = gate(name, child.code, data)
        if child.code != 0:
            problems.append(tail(work / "cli.err"))
        counts = {"seeded": {"sha256": hashlib.sha256(data).hexdigest()}}
        if name.startswith("strategy "):
            counts["seeded"]["bytes"] = len(data)
        else:
            counts["invariant"] = {"bytes": len(data)}
        result.ops.append({"op": name, "problems": problems, "counts": counts})
        if traced and spans_file.exists():
            trace = json.loads(spans_file.read_text(encoding="utf-8"))
            offset = len(result.spans) + 1
            main_start = trace["spans"][0][1] if trace["spans"] else child.spawned + child.seconds
            result.spans.append([PROCESS_START, child.spawned, main_start, -1, index, None])
            for span in trace["spans"]:
                span[3] = span[3] + offset if span[3] >= 0 else -1
                result.spans.append(span)
            result.counts.update(trace["counts"])
    return result


# ---------------------------------------------------------------------------
# library workloads


def library_pass(workload: str, work: Path, traced: bool) -> Pass:
    out, spans_file = work / "pass.json", work / "spans.json"
    cmd = [sys.executable, str(CHILD), "pass", workload, str(work), str(out)]
    if traced:
        cmd.append(str(spans_file))
    child = spawn(cmd, work / "pass.out", work / "pass.err")
    if child.code != 0:
        raise BenchError(f"library pass exited with {child.code}:\n{tail(work / 'pass.err')}")
    data = json.loads(out.read_text(encoding="utf-8"))
    result = Pass(data["wall"], data["cpu"], child.max_rss_kib, data["ops"])
    if traced:
        trace = json.loads(spans_file.read_text(encoding="utf-8"))
        result.spans, result.counts = trace["spans"], Counter(trace["counts"])
    return result


# ---------------------------------------------------------------------------
# checks across passes and against the recorded values


def check_op_counts(passes: list, recorded: dict, default_seed: bool) -> None:
    """Each operation's work counts repeat exactly across passes; invariant
    counts equal the recorded ones on every seed, all on the default seed."""
    first = {op["op"]: op["counts"] for op in passes[0].ops}
    for p in passes:
        for op in p.ops:
            if op["counts"] != first[op["op"]]:
                op["problems"].append("work counts differ between passes")
            if not recorded or not op["counts"]:
                continue
            want = recorded.get(op["op"])
            if want is None:
                op["problems"].append("no recorded values")
            elif op["counts"].get("invariant") != want.get("invariant"):
                op["problems"].append(f"invariant counts {op['counts']} != recorded {want}")
            elif default_seed and op["counts"].get("seeded") != want.get("seeded"):
                op["problems"].append(f"counts {op['counts']} != recorded {want}")


def check_traced_counts(counts: Counter, recorded: dict, default_seed: bool) -> list:
    return [
        f"traced {name} = {counts.get(name, 0)}, recorded {want}"
        for name, want in recorded.items()
        if (default_seed or name in INVARIANT_COUNTS) and counts.get(name, 0) != want
    ]


def check_baselines(traced: Pass, names: list) -> list:
    """The traced solve_heavy pass reproduces the ROADMAP class counts."""
    seen = {}
    for span in traced.spans:
        if span[0] == "reduction.build_safety_game" and span[5]:
            game = names[span[4]]
            seen[game, span[5]["tracked_player"]] = span[5]["classes"]
    return [
        f"{game} tracking player {side}: {seen.get((game, side))} classes, ROADMAP has {want}"
        for (game, side), want in ROADMAP_CLASSES.items()
        if seen.get((game, side)) != want
    ]


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(traced: Pass, untraced_wall: float) -> tuple:
    """Per-layer metrics of a traced pass, and problems with its spans."""
    from tracer import SPANNED, self_times

    metric_of = {f"{mod}.{fn}": metric for mod, fn, metric, _ in SPANNED}
    metric_of[PROCESS_START] = "cli.process_start_s"
    times = dict.fromkeys(metric_of.values(), 0.0)
    problems = []
    own = self_times(traced.spans)
    for name, seconds in own.items():
        if name in metric_of:
            times[metric_of[name]] += seconds
        else:
            problems.append(f"span {name} has no metric")
    glue = traced.wall - sum(own.values())
    if glue < -1e-6:
        problems.append(f"spans cover more than the traced wall time ({glue:.6f} s of glue)")

    metrics = {name: (value, "s") for name, value in times.items()}
    counts = traced.counts
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "bytes" if name.endswith("_bytes") else "count")
    for name, (count, time_metric, unit) in RATE_METRICS.items():
        seconds = times[time_metric]
        metrics[name] = (counts.get(count, 0) / seconds if seconds > 0 else 0.0, unit)
    classes = counts.get("strategy.antichain_classes", 0)
    metrics["strategy.memory_ratio"] = (
        counts.get("strategy.memory_states", 0) / classes if classes else 0.0,
        "ratio",
    )
    metrics["bench.traced_wall_s"] = (traced.wall, "s")
    metrics["bench.glue_s"] = (glue, "s")
    metrics["bench.trace_overhead_s"] = (traced.wall - untraced_wall, "s")
    return metrics, problems


def end_to_end(passes: list, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mib": (statistics.median(p.peak_rss_kib for p in passes) / 1024, "MiB"),
    }


# ---------------------------------------------------------------------------


def run(args, work: Path) -> dict:
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    kind = workloads.WORKLOADS[args.workload][0]
    default_seed = args.seed == workloads.DEFAULT_SEED
    if args.record and not default_seed:
        raise BenchError("--record needs the default seed")
    setup_s, manifest = set_up(args.workload, args.seed, work)
    names = manifest["games"]
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {manifest['sha256']}")

    if kind == "cli":
        ops, gate = cli_ops(args.workload, names, work), CliGate(work)
        op_names = [name.split()[-1] for name, _, _ in ops]

        def one_pass(traced):
            return cli_pass(ops, work, gate, traced)

    else:
        op_names = None

        def one_pass(traced):
            return library_pass(args.workload, work, traced)

    passes = []
    started = perf_counter()
    while True:
        passes.append(one_pass(False))
        elapsed = perf_counter() - started
        if args.trace or elapsed + elapsed / len(passes) > args.seconds:
            break
    traced = one_pass(True) if args.trace else None
    everything = passes + ([traced] if traced else [])

    recorded = {"ops": {}, "traced": {}}
    if not args.record:
        table = json.loads(EXPECTED.read_text(encoding="utf-8"))
        if args.workload not in table:
            raise BenchError(f"no recorded values for {args.workload} in {EXPECTED.name}")
        recorded = table[args.workload]
    check_op_counts(everything, recorded["ops"], default_seed)
    counts_digest = hashlib.sha256(
        json.dumps([op["counts"] for op in passes[0].ops], sort_keys=True).encode()
    ).hexdigest()
    print(f"work counts sha256 {counts_digest}")

    run_problems = []
    if traced:
        spans_out = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans_out.write_text(
            json.dumps({"spans": traced.spans, "counts": traced.counts}), encoding="utf-8"
        )
        print(f"spans written to {spans_out.relative_to(ROOT)}")
        metrics, run_problems = layer_metrics(traced, passes[0].wall)
        run_problems += check_traced_counts(traced.counts, recorded["traced"], default_seed)
        if args.workload == "solve_heavy":
            run_problems += check_baselines(traced, op_names)
    else:
        metrics = end_to_end(passes, setup_s)

    for i, p in enumerate(everything):
        label = "traced" if p is traced else "untraced"
        print(f"pass {i} {label}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s, "
              f"peak {p.peak_rss_kib / 1024:.1f} MiB")
    failed = 0
    for p in everything:
        for op in p.ops:
            if op["problems"]:
                failed += 1
                print(f"FAILED {op['op']}: {'; '.join(op['problems'])}")
    for problem in run_problems:
        print(f"FAILED run: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")

    if args.record:
        table = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
        entry = table.setdefault(args.workload, {"ops": {}, "traced": {}})
        entry["ops"] = {op["op"]: op["counts"] for op in passes[0].ops}
        if traced:
            entry["traced"] = dict(sorted(traced.counts.items()))
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    return {
        "correct": failed == 0 and not run_problems,
        "attempted": sum(len(p.ops) for p in everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="store this run's work counts and output digests"
    )
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "scoregames" / "__init__.py").is_file():
        print(f"error: no scoregames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
