"""sha256 digests of each case's outputs, and the checked-in digest table.

The round's outputs must not change under a pure speed-up.  An artifact
run is hashed file by file; an engine run, which writes no files, is
hashed over its pose and occupancy traces, its job traces and the hub's
telemetry log.  Regenerate the table with `python3 perfbench/regen_digests.py`.
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from itertools import chain

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

LOG_FIELDS = (
    "tick", "vehicle_id", "x_m", "y_m", "heading_deg", "speed_m_s",
    "dist_from_origin_m", "angle_from_origin_deg", "state",
)


def engine_digest(sim) -> str:
    h = hashlib.sha256()
    h.update(array("d", chain.from_iterable(chain.from_iterable(sim.pose_trace))).tobytes())
    h.update(array("q", chain.from_iterable(chain.from_iterable(sim.occupancy_trace))).tobytes())
    jobs = [
        [t.vehicle_id, t.job_id, [list(n) for n in t.outbound], [list(n) for n in t.retraced],
         list(t.final_pose), list(t.home_position), t.complete_tick]
        for t in sim.job_traces
    ]
    log = [[getattr(rec, f) for f in LOG_FIELDS] for rec in sim.hub.log]
    totals = [sim.tick_count, sim.completed_jobs, sim.last_complete_tick]
    h.update(json.dumps([jobs, log, totals]).encode())
    return h.hexdigest()


def artifact_digest(out_dir: str) -> str:
    h = hashlib.sha256()
    paths = []
    for root, _, files in os.walk(out_dir):
        paths += [os.path.relpath(os.path.join(root, f), out_dir) for f in files]
    for rel in sorted(paths):
        h.update(rel.replace(os.sep, "/").encode() + b"\0")
        with open(os.path.join(out_dir, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def load_table() -> dict[str, str]:
    with open(TABLE, encoding="ascii") as fh:
        return json.load(fh)


def save_table(table: dict[str, str]) -> None:
    with open(TABLE, "w", encoding="ascii") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
