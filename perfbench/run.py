"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fleet_crossing --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from `src/`.
The workload's scenarios are generated from --seed before any timing.
The run then repeats whole rounds of them while the next round still
fits in --seconds (at least two rounds), checks every output and compares it with the
checked-in digest.  With --trace 0 it prints the end-to-end metrics;
with --trace 1 it times one plain round, then traced rounds, and prints
the per-layer metrics and the tracing overhead.  Exit code 0 means every
output passed its checks; outputs are written under `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One thread per workload process, whatever numpy links against.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import checks  # noqa: E402
import digest  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2


def load_program():
    """Import the program from this checkout's src/, or return None."""
    src = ROOT / "src"
    if not (src / "swarmport" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import swarmport.cli
    import swarmport.sim

    if not Path(swarmport.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return swarmport.sim, swarmport.cli


class Round:
    """Runs the cases of one round, checking and digesting each output."""

    def __init__(self, runner: measure.Runner, cases, table: dict | None) -> None:
        self.runner = runner
        self.cases = cases
        self.prepared = [runner.prepare(c) for c in cases]
        self.table = table
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def run(self, check: bool) -> measure.RoundStats:
        stats = measure.RoundStats()
        for case, prepared in zip(self.cases, self.prepared):
            if case.radio_seed is not None:
                shutil.rmtree(os.path.join(self.runner.work_dir, case.key), ignore_errors=True)
            self.attempted += 1
            try:
                result = self.runner.run(case, prepared)
            except Exception:  # a crash is one failed operation; the round goes on
                traceback.print_exc(file=sys.stderr)
                result = None
            if result is None or result.sim is None:
                self.failed += 1
                continue
            stats.add(result)
            self.inspect(result, check)
            del result
            gc.collect()
        return stats

    def inspect(self, result: measure.CaseRun, check: bool) -> None:
        case = result.case
        if case.radio_seed is None:
            found = checks.check_engine_run(case.doc, result.sim) if check else []
            got = digest.engine_digest(result.sim)
        else:
            found = checks.check_artifact_run(
                case.doc, result.out_dir, result.exit_code, len(result.tick_ns)) if check else []
            got = digest.artifact_digest(result.out_dir)
        self.problems += [f"{case.key}: {p}" for p in found]
        self.digests[case.key] = got
        if self.table is not None and self.table.get(case.key) != got:
            self.problems.append(f"{case.key}: output digest {got} differs from the checked-in one")


def measure_rounds(round_: Round, seconds: float) -> list[measure.RoundStats]:
    """At least MIN_ROUNDS rounds, then more while the next one fits in ``seconds``."""
    start = time.monotonic()
    rounds, took = [], 0.0
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start + took <= seconds:
        began = time.monotonic()
        rounds.append(round_.run(check=not rounds))
        took = time.monotonic() - began
    return rounds


def traced_metrics(round_: Round, seconds: float, spans_path: str) -> dict:
    """One plain round, then traced rounds while the next one fits in ``seconds``."""
    probe = round_.runner.probe
    start = time.monotonic()
    probe.install()
    try:
        plain = round_.run(check=True)
    finally:
        probe.uninstall()
    tracer = layers.Tracer()
    tracer.install()
    probe.install()  # outside the tracer, so calibration stays out of the spans
    per_round, walls, took = [], [], 0.0
    try:
        while not walls or time.monotonic() - start + took <= seconds:
            began = time.monotonic()
            tracer.reset_counts()
            stats = round_.run(check=False)
            walls.append(stats.wall_ns * stats.scale / 1e9)
            per_round.append({
                name: (value * stats.scale if unit == "s" else value, unit)
                for name, (value, unit) in tracer.metrics().items()
            })
            took = time.monotonic() - began
    finally:
        probe.uninstall()
        tracer.uninstall()
    tracer.save_spans(spans_path)
    for name in tracer.missing:
        print(f"perfbench: trace target missing: {name}", file=sys.stderr)
    out = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    traced_wall = statistics.median(walls)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain.wall_ns * plain.scale / 1e9, "s")
    out["trace.missing_targets"] = (float(len(tracer.missing)), "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    if program is None:
        print(f"perfbench: no swarmport source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sim_module, cli_module = program

    cases = workloads.round_cases(args.workload, args.seed)
    out_dir = ROOT / ".perfbench"
    runner = measure.Runner(sim_module, cli_module, str(out_dir / args.workload))
    round_ = Round(runner, cases, digest.load_table())
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        metrics = traced_metrics(round_, args.seconds, str(spans))
    else:
        runner.probe.install()
        try:
            rounds = measure_rounds(round_, args.seconds)
        finally:
            runner.probe.uninstall()
        if not all(r.tick_ns for r in rounds):
            print("perfbench: a round completed no case", file=sys.stderr)
            return 1
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = measure.end_to_end(rounds, peak_kb)
        print("perfbench: host-time scale per round " + " ".join(f"{r.scale:.3f}" for r in rounds),
              file=sys.stderr)

    for problem in round_.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not round_.problems,
        "attempted": round_.attempted,
        "failed": round_.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
