"""Timing of workload rounds from outside the program.

The probe wraps three public entry points of the program — building a
`Simulation`, one `Simulation.tick`, and `cli.load_scenario` — and
records their host time.  Everything else is timed around whole calls
into the program, so the program itself carries no timers.  Between
ticks the probe times a reference task, which gives each round the
factor that scales its host times to the reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field

from workloads import Case, bfs_hops


# On a shared virtual machine the host's speed drifts by 15-30% over
# minutes; a run therefore times a fixed reference task every quarter second and
# scales its host times to the reference speed (see README, Steadiness).
CALIBRATE_EVERY_NS = 250_000_000
# Median host time of `Reference.task` on the machine the README's figures
# come from; scaled times read as host time on it at its median speed.
REFERENCE_NS = 7_200_000


class Reference:
    """A fixed pure-Python task, the benchmark's own code, timed as a yardstick.

    It mixes what the simulator spends its time on: a grid BFS over
    dicts and tuples, float trigonometry over a small fleet, and a scan
    of a 40,000-record list.
    """

    def __init__(self) -> None:
        rng = random.Random(7)
        cells = [(x, y) for x in range(31) for y in range(31)]
        self.blocked = frozenset(rng.sample(cells, 80)) - {(0, 0), (30, 30)}
        record = namedtuple("record", "tick vehicle x y")
        self.log = [record(i, i % 8, i * 0.5, i * 0.25) for i in range(40_000)]

    def task(self) -> None:
        for root in ((0, 0), (30, 30)):
            bfs_hops(31, 31, self.blocked, root)
        heading, xs, ys = [0.0] * 8, [0.0] * 8, [0.0] * 8
        for _ in range(300):
            for i in range(8):
                heading[i] = (heading[i] + 1.5) % 360.0
                a = math.radians(heading[i])
                xs[i] += 0.001 * math.cos(a)
                ys[i] += 0.001 * math.sin(a)
            min(math.hypot(x - 1.0, y - 1.0) for x, y in zip(xs, ys))
        latest = {}
        for rec in self.log:
            latest[rec.vehicle] = rec

    def time_ns(self) -> int:
        start = time.perf_counter_ns()
        self.task()
        return time.perf_counter_ns() - start


class Probe:
    """End-to-end timers on the program's public set-up and tick calls.

    `install` wraps whatever the attributes hold at that moment, so the
    probe can sit outside the per-layer tracer's wrappers.
    """

    def __init__(self, sim_module, cli_module) -> None:
        self.sim_module = sim_module
        self.cli_module = cli_module
        self.reference = Reference()
        self._patches = []
        self.reset()

    def reset(self) -> None:
        self.setup_ns = 0
        self.tick_ns: list[int] = []
        self.ref_ns: list[int] = []
        self.calibration_ns = 0
        self.last_sim = None
        self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter_ns()
        self.ref_ns.append(self.reference.time_ns())
        self.calibrated_at = time.perf_counter_ns()
        self.calibration_ns += self.calibrated_at - start

    def install(self) -> None:
        clock = time.perf_counter_ns
        probe = self
        cls = self.sim_module.Simulation
        init, tick = cls.__init__, cls.tick
        load = self.cli_module.load_scenario

        def timed_init(sim, *args, **kwargs):
            start = clock()
            init(sim, *args, **kwargs)
            probe.setup_ns += clock() - start
            probe.last_sim = sim

        def timed_tick(sim):
            start = clock()
            tick(sim)
            end = clock()
            probe.tick_ns.append(end - start)
            if end - probe.calibrated_at >= CALIBRATE_EVERY_NS:
                probe.calibrate()

        def timed_load(path):
            start = clock()
            try:
                return load(path)
            finally:
                probe.setup_ns += clock() - start

        self._patches = [
            (cls, "__init__", init),
            (cls, "tick", tick),
            (self.cli_module, "load_scenario", load),
        ]
        cls.__init__, cls.tick = timed_init, timed_tick
        self.cli_module.load_scenario = timed_load

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []


@dataclass
class CaseRun:
    """What one case left behind for the checks."""

    case: Case
    wall_ns: int
    setup_ns: int
    tick_ns: list[int]
    ref_ns: list[int]
    sim: object
    out_dir: str | None = None
    exit_code: int | None = None


@dataclass
class RoundStats:
    wall_ns: int = 0
    setup_ns: int = 0
    tick_ns: list[int] = field(default_factory=list)
    ref_ns: list[int] = field(default_factory=list)
    makespan_ticks: int = 0

    def add(self, run: CaseRun) -> None:
        self.wall_ns += run.wall_ns
        self.setup_ns += run.setup_ns
        self.tick_ns.extend(run.tick_ns)
        self.ref_ns.extend(run.ref_ns)
        self.makespan_ticks += run.sim.last_complete_tick

    @property
    def scale(self) -> float:
        """Factor from this round's host time to time at the reference speed."""
        return REFERENCE_NS / statistics.median(self.ref_ns)


class Runner:
    """Runs cases of a workload under the probe."""

    def __init__(self, swarmport_sim, swarmport_cli, work_dir: str) -> None:
        self.sim_module = swarmport_sim
        self.cli_module = swarmport_cli
        self.work_dir = work_dir
        self.probe = Probe(swarmport_sim, swarmport_cli)

    def prepare(self, case: Case):
        """Untimed input preparation: parse the document, or write it for the CLI."""
        if case.radio_seed is None:
            return self.sim_module.scenario_from_dict(case.doc)
        os.makedirs(self.work_dir, exist_ok=True)
        path = os.path.join(self.work_dir, "scenario.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(case.doc, fh, indent=2)
        return path

    def run(self, case: Case, prepared) -> CaseRun:
        probe = self.probe
        probe.reset()
        probe.calibration_ns = 0
        if case.radio_seed is None:
            start = time.perf_counter_ns()
            sim = self.sim_module.Simulation(prepared, trace=True, capture=False)
            sim.run_loop()
            wall = time.perf_counter_ns() - start - probe.calibration_ns
            return CaseRun(case, wall, probe.setup_ns, probe.tick_ns, probe.ref_ns, sim)
        out_dir = os.path.join(self.work_dir, case.key)
        argv = ["run", "--scenario", prepared, "--out", out_dir, "--seed", str(case.radio_seed)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            code = self.cli_module.main(argv)
            wall = time.perf_counter_ns() - start - probe.calibration_ns
        if code != 0:
            print(f"{case.key}: swarmport run exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return CaseRun(case, wall, probe.setup_ns, probe.tick_ns, probe.ref_ns, probe.last_sim, out_dir, code)


def end_to_end(rounds: list[RoundStats], peak_rss_kb: int) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as (value, unit).

    Times are scaled to the reference speed round by round; each is the
    median over rounds of its per-round value.
    """

    def median(per_round) -> float:
        return statistics.median(per_round(r) * r.scale for r in rounds)

    def tick_quantile(r: RoundStats, share: float) -> float:
        return statistics.quantiles(r.tick_ns, n=100, method="inclusive")[round(share * 100) - 1]

    return {
        "setup_s": (median(lambda r: r.setup_ns) / 1e9, "s"),
        "wall_s": (median(lambda r: r.wall_ns) / 1e9, "s"),
        "us_per_tick": (median(lambda r: sum(r.tick_ns) / len(r.tick_ns)) / 1e3, "us"),
        "tick_p50_us": (median(lambda r: tick_quantile(r, 0.50)) / 1e3, "us"),
        "tick_p99_us": (median(lambda r: tick_quantile(r, 0.99)) / 1e3, "us"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "makespan_ticks": (float(rounds[0].makespan_ticks), "ticks"),
    }
