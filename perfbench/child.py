"""Child processes of the benchmark; ``run.py`` starts them, one at a time.

    child.py setup WORKLOAD SEED DIR      generate the games and write them
    child.py pass WORKLOAD DIR OUT [SPANS]
                                          one library pass; with SPANS traced
    child.py cli SPANS OP -- ARGS...      one traced scoregames command
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter, process_time

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, seed: int, out: Path) -> None:
    """Import scoregames, generate the games and write them; the manifest
    records how long that took, interpreter start-up left out."""
    started = perf_counter()
    from scoregames.cli import serialize_game

    from workloads import generate

    games_dir = out / "games"
    games_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    names = []
    for name, arena, condition in generate(workload, seed):
        data = serialize_game(arena, condition).encode()
        (games_dir / f"{name}.txt").write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
        names.append(name)
    manifest = {"games": names, "sha256": digest.hexdigest(), "seconds": perf_counter() - started}
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def load_games(work: Path) -> dict:
    """The games written by ``setup``, parsed back, by name."""
    from scoregames.cli import parse_game

    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    return {
        name: parse_game((work / "games" / f"{name}.txt").read_text(encoding="utf-8"))
        for name in manifest["games"]
    }


def library_ops(workload: str, games: dict) -> list:
    """(operation name, operation, its gate, arguments) for one pass."""
    import workloads as w

    if workload == "certify":
        return [(name, w.certify_op, w.gate_certify, game) for name, game in games.items()]
    ops = []
    for s in w.WORKLOADS[workload][1]:
        by_kind = {kind: games[f"f{s}-{kind}"] for kind in w.FRAMEWORK_KINDS}
        ops.append((f"f{s}", w.monitor_op, w.gate_monitor, (by_kind,)))
    return ops


def library_pass(workload: str, work: Path, out: Path, spans: str = None) -> None:
    """Time each operation alone; gate it after its clock stops, then drop
    its results before the next one starts."""
    from tracer import Tracer

    ops = library_ops(workload, load_games(work))
    tracer = Tracer()
    if spans:
        tracer.install()
    wall = cpu = 0.0
    results = []
    for index, (name, op, gate, args) in enumerate(ops):
        tracer.op, tracer.enabled = index, bool(spans)
        t0, c0 = perf_counter(), process_time()
        try:
            facts, counts = op(*args)
        except Exception as exc:  # an operation's failure is a result
            facts, counts, problems = None, {}, [f"{type(exc).__name__}: {exc}"]
        t1, c1 = perf_counter(), process_time()
        tracer.enabled = False
        wall += t1 - t0
        cpu += c1 - c0
        if facts is not None:
            problems = gate(facts)
        results.append({"op": name, "problems": problems, "counts": counts})
        del facts
    out.write_text(json.dumps({"wall": wall, "cpu": cpu, "ops": results}), encoding="utf-8")
    if spans:
        tracer.dump(spans)


def traced_cli(spans: str, op: int, argv: list) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    import scoregames.cli as cli

    tracer.op, tracer.enabled = op, True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        tracer.dump(spans)


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if mode == "pass":
        library_pass(argv[1], Path(argv[2]), Path(argv[3]), argv[4] if len(argv) > 4 else None)
        return 0
    if mode == "cli":
        if argv[3] != "--":
            raise SystemExit("usage: child.py cli SPANS OP -- ARGS...")
        return traced_cli(argv[1], int(argv[2]), argv[4:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
