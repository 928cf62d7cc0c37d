"""Command line: run a scenario, query the planner, or take a radar scan.

Exit codes: 0 success, 1 any error, 2 no path / incomplete jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from .errors import IoFailure, NoPath, ScenarioInvalid, SwarmportError
from .grid import NodeId
from .planner import astar, bellman_ford, check_endpoints, dijkstra, floyd_warshall
from .radar import Disc, detect_targets, encode_frame, render_frame, sweep
from .sim import (
    Scenario,
    default_scenario,
    parse_scenario,
    run,
    scenario_to_dict,
    validate_scenario,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_PATH = 2


def load_scenario(path: str) -> Scenario:
    """Read and parse a scenario file; each command validates it once.

    A document nested past the interpreter's recursion limit is rejected
    whole, whether reading it or naming one of its values overflows.  So
    is one holding an integer longer than the interpreter converts.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioInvalid(f"{path}: invalid JSON: {exc}") from exc
            except UnicodeDecodeError as exc:
                raise ScenarioInvalid(f"{path}: not UTF-8 text: {exc}") from exc
            except ValueError as exc:
                raise ScenarioInvalid(f"{path}: unreadable number: {exc}") from exc
        return parse_scenario(data)
    except OSError as exc:
        raise IoFailure(f"cannot read scenario {path}: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioInvalid(f"{path}: nested too deeply") from exc


def _parse_node(text: str) -> NodeId:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected ix,iy - got {text!r}")
    try:
        return NodeId(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integer pair, got {text!r}") from exc


def cmd_run(scenario: Scenario, out_dir: str) -> int:
    report = run(scenario, out_dir)
    print(f"jobs completed: {report.completed_jobs}/{report.total_jobs}")
    print(f"makespan ticks: {report.makespan_ticks}")
    print(f"artifacts in: {out_dir}")
    return EXIT_OK if report.completed_jobs == report.total_jobs else EXIT_NO_PATH


def cmd_plan(scenario: Scenario, src: NodeId, dst: NodeId, algorithm: str) -> int:
    grid = validate_scenario(scenario)
    try:
        check_endpoints(grid, src, dst)
        if algorithm == "dijkstra":
            path = dijkstra(grid, src, dst)
            cost = path.cost
        elif algorithm == "astar":
            path = astar(grid, src, dst)
            cost = path.cost
        elif algorithm == "bellman-ford":
            dist = bellman_ford(grid, src)
            if dst not in dist:
                raise NoPath(f"no route {tuple(src)} -> {tuple(dst)}")
            path = astar(grid, src, dst)
            cost = dist[dst]
        else:
            table = floyd_warshall(grid)
            cost = table.cost(src, dst)
            if math.isinf(cost):
                raise NoPath(f"no route {tuple(src)} -> {tuple(dst)}")
            cost = int(cost)
            path = astar(grid, src, dst)
    except NoPath as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_NO_PATH
    print("path: " + " -> ".join(f"({n.ix},{n.iy})" for n in path.nodes))
    print(f"cost: {cost}")
    return EXIT_OK


def cmd_scan(scenario: Scenario, out_dir: str) -> int:
    grid = validate_scenario(scenario)
    cfg = scenario.sensor
    discs = [Disc(grid.node_to_position(v.home_node), v.params.body_radius_m) for v in scenario.vehicles]
    scan = sweep(cfg, discs)
    targets = detect_targets(scan, cfg)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "scan_stream.txt"), "w", encoding="ascii", newline="\n") as fh:
            for angle, dist in scan.samples:
                fh.write(encode_frame(angle, dist))
        render_frame(
            scan,
            (scenario.terrain.width_m, scenario.terrain.height_m),
            os.path.join(out_dir, "scan.svg"),
        )
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    print(f"targets: {len(targets)}", file=sys.stderr)
    return EXIT_OK


def cmd_defaults(out_path: str) -> int:
    doc = scenario_to_dict(default_scenario())
    try:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {out_path}: {exc}") from exc
    print(f"wrote {out_path}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Exit code 2 is reserved for NoPath/incomplete; argument errors are 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swarmport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write artifacts")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-ticks", type=int, default=None)

    p_plan = sub.add_parser("plan", help="print a shortest path")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument(
        "--algo",
        required=True,
        choices=["dijkstra", "astar", "bellman-ford", "floyd-warshall"],
    )
    p_plan.add_argument("--from", dest="src", type=_parse_node, required=True)
    p_plan.add_argument("--to", dest="dst", type=_parse_node, required=True)

    p_scan = sub.add_parser("scan", help="one radar sweep of the static world")
    p_scan.add_argument("--scenario", required=True)
    p_scan.add_argument("--out", required=True)

    p_def = sub.add_parser("defaults", help="write the default scenario JSON")
    p_def.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario = replace(scenario, medium=replace(scenario.medium, seed=args.seed))
            if args.max_ticks is not None:
                scenario = replace(scenario, sim=replace(scenario.sim, max_ticks=args.max_ticks))
            return cmd_run(scenario, args.out)
        if args.command == "plan":
            return cmd_plan(load_scenario(args.scenario), args.src, args.dst, args.algo)
        if args.command == "scan":
            return cmd_scan(load_scenario(args.scenario), args.out)
        return cmd_defaults(args.out)
    except SwarmportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
