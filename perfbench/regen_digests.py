"""Regenerate `digests.json` from the program in this checkout.

    python3 perfbench/regen_digests.py

Runs every case of every workload's pool once, untimed, checks its
outputs and records their digest.  It writes nothing if any output fails
its checks.  Run it only when a change is meant to alter outputs, and
say so in the change.
"""

from __future__ import annotations

import sys

import digest
import measure
import run
import workloads


def main() -> int:
    program = run.load_program()
    if program is None:
        print("regen_digests: no swarmport source under src/", file=sys.stderr)
        return 2
    sim_module, cli_module = program
    table: dict[str, str] = {}
    problems: list[str] = []
    for name in workloads.WORKLOADS:
        runner = measure.Runner(sim_module, cli_module, str(run.ROOT / ".perfbench" / name))
        round_ = run.Round(runner, workloads.pool(name), table=None)
        runner.probe.install()
        try:
            round_.run(check=True)
        finally:
            runner.probe.uninstall()
        problems += round_.problems
        table.update(round_.digests)
        if round_.failed:
            problems.append(f"{name}: {round_.failed} case(s) raised")
        print(f"{name}: {round_.attempted} cases", file=sys.stderr)
    if problems:
        for p in problems:
            print(f"regen_digests: {p}", file=sys.stderr)
        return 1
    digest.save_table(table)
    print(f"wrote {len(table)} digests to {digest.TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
