"""Output checks that do not trust the program's own bookkeeping.

Each check returns a list of problems; an empty list means the output
passed.  Oracles are the benchmark's own: breadth-first hop counts from
`workloads.bfs_hops`, the C4 speed limit, `binascii.crc_hqx` for the
frame checksum, and the sweep order recomputed from the sensor step.
"""

from __future__ import annotations

import binascii
import csv
import json
import math
import os
import re
import struct

import numpy as np

from workloads import CRUISE_SPEED_M_S, bfs_hops

# C4: the wheel-speed loop overshoots its setpoint by at most 10%, so no
# vehicle ever moves faster than 1.1x its cruise speed.
SPEED_LIMIT_M_S = 1.1 * CRUISE_SPEED_M_S

TELEMETRY = 0x03
PAYLOAD_LENGTH = {0x01: 0, 0x02: 4, 0x03: 8, 0x04: 0}
CSV_HEADER = (
    "tick,vehicle_id,x_m,y_m,heading_deg,speed_m_s,"
    "dist_from_origin_m,angle_from_origin_deg,state"
)
SCAN_LINE = re.compile(r"(\d+),(\d+)\.")


# ------------------------------------------------------------ engine runs


def audit_occupancy(occupancy, poses, spacing_m: float) -> list[str]:
    """No node claimed by two vehicles at one tick; separation >= spacing/2."""
    occ = np.asarray(occupancy, dtype=np.int64)
    pos = np.asarray(poses, dtype=np.float64)
    if occ.ndim != 3 or pos.shape[:2] != occ.shape[:2]:
        return [f"trace shapes {occ.shape} / {pos.shape} are not ticks x vehicles x 2"]
    problems = []
    n = occ.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = occ[:, i, :], occ[:, j, :]
            shared = ((a[:, 0:1] == b) | (a[:, 1:2] == b)).any(axis=1)
            if shared.any():
                tick = int(np.argmax(shared))
                problems.append(f"vehicles #{i} and #{j} share a node at tick {tick}")
            gap = np.hypot(*(pos[:, i, :] - pos[:, j, :]).T)
            if gap.min() < 0.5 * spacing_m:
                problems.append(
                    f"vehicles #{i} and #{j} {gap.min():.4f} m apart at tick {int(np.argmin(gap))}"
                )
    return problems


def check_retrace(job_traces, homes: dict, spacing_m: float) -> list[str]:
    """Each job retraces its outbound nodes in exact reverse and parks home."""
    problems = []
    for t in job_traces:
        if list(t.retraced) != list(t.outbound)[::-1]:
            problems.append(f"job {t.job_id}: retrace is not the reversed outbound trail")
        hx, hy = (c * spacing_m for c in homes[t.vehicle_id])
        miss = math.hypot(t.final_pose[0] - hx, t.final_pose[1] - hy)
        if miss > spacing_m / 10.0:
            problems.append(f"job {t.job_id}: parked {miss:.4f} m from home")
    return problems


def makespan_lower_bound(doc: dict) -> int:
    """Ticks no job cycle can beat at the speed limit on shortest routes.

    A job's vehicle leaves home for the pickup, carries to the destination
    and retraces the same nodes home, so it covers at least twice the hop
    count of the nearest home to the pickup plus pickup to destination.
    """
    t = doc["terrain"]
    nx = int(math.floor(t["width_m"] / t["spacing_m"])) + 1
    ny = int(math.floor(t["height_m"] / t["spacing_m"])) + 1
    blocked = {tuple(b) for b in t["blocked"]}
    homes = [tuple(v["home_node"]) for v in doc["vehicles"]]
    ticks_per_hop = t["spacing_m"] / SPEED_LIMIT_M_S / doc["sim"]["dt_s"]
    bound = 0
    for job in doc["jobs"]:
        pickup, dest = tuple(job["pickup_node"]), tuple(job["destination_node"])
        from_pickup = bfs_hops(nx, ny, blocked, pickup)
        hops = 2 * (min(from_pickup[h] for h in homes) + from_pickup[dest])
        bound = max(bound, job["release_tick"] + math.floor(hops * ticks_per_hop))
    return bound


def check_engine_run(doc: dict, sim) -> list[str]:
    """All checks on an engine-driven run with the pose/occupancy trace on."""
    jobs = doc["jobs"]
    spacing = doc["terrain"]["spacing_m"]
    problems = []
    if sim.completed_jobs != len(jobs):
        problems.append(f"{sim.completed_jobs}/{len(jobs)} jobs completed")
    done = sorted(t.job_id for t in sim.job_traces)
    if done != sorted(j["job_id"] for j in jobs):
        problems.append(f"job traces cover jobs {done}")
    problems += audit_occupancy(sim.occupancy_trace, sim.pose_trace, spacing)
    homes = {v["vehicle_id"]: tuple(v["home_node"]) for v in doc["vehicles"]}
    problems += check_retrace(sim.job_traces, homes, spacing)
    bound = makespan_lower_bound(doc)
    if sim.last_complete_tick < bound:
        problems.append(f"makespan {sim.last_complete_tick} below kinematic bound {bound}")
    return problems


# ------------------------------------------------------- artifact runs


def parse_capture(data: bytes) -> tuple[list[tuple[int, int, bytes]], list[str]]:
    """Records of capture.bin: (tick u32 BE, channel u8, frame) back to back.

    A frame is 0x7E, version 0x01, kind, vehicle id, payload length,
    payload, and a big-endian CRC-16/CCITT-FALSE of version..payload.
    """
    records, problems = [], []
    pos = 0
    last_tick = 0
    while pos < len(data):
        if len(data) - pos < 12:
            problems.append(f"truncated record at byte {pos}")
            break
        tick, channel = struct.unpack_from(">IB", data, pos)
        frame_at = pos + 5
        length = data[frame_at + 4]
        frame = data[frame_at : frame_at + 7 + length]
        where = f"record at byte {pos} (tick {tick})"
        if len(frame) != 7 + length:
            problems.append(f"{where}: truncated frame")
            break
        if frame[0] != 0x7E or frame[1] != 0x01:
            problems.append(f"{where}: bad sync/version {frame[:2].hex()}")
        kind, vehicle = frame[2], frame[3]
        if PAYLOAD_LENGTH.get(kind) != length:
            problems.append(f"{where}: kind 0x{kind:02x} with {length}-byte payload")
        if vehicle != channel:
            problems.append(f"{where}: vehicle {vehicle} on channel {channel}")
        (crc,) = struct.unpack(">H", frame[-2:])
        if crc != binascii.crc_hqx(frame[1:-2], 0xFFFF):
            problems.append(f"{where}: CRC mismatch")
        if tick < last_tick:
            problems.append(f"{where}: tick goes back from {last_tick}")
        last_tick = tick
        records.append((tick, channel, frame))
        pos = frame_at + len(frame)
    return records, problems


def check_telemetry_rows(rows: list[str], records) -> list[str]:
    """Each CSV row matches a captured TELEMETRY frame sent no later."""
    if not rows or rows[0] != CSV_HEADER:
        return ["telemetry.csv header missing or wrong"]
    first_sent: dict[tuple[int, str, str], int] = {}
    for tick, channel, frame in records:
        if frame[2] != TELEMETRY:
            continue
        x_mm, y_mm = struct.unpack(">HH", frame[5:9])
        key = (channel, f"{x_mm / 1000.0:.5f}", f"{y_mm / 1000.0:.5f}")
        first_sent.setdefault(key, tick)
    problems = []
    for n, row in enumerate(csv.reader(rows[1:]), start=2):
        tick, vehicle, x, y = int(row[0]), int(row[1]), row[2], row[3]
        sent = first_sent.get((vehicle, x, y))
        if sent is None or sent > tick:
            problems.append(f"telemetry.csv line {n}: no TELEMETRY frame from {vehicle} at ({x}, {y}) by tick {tick}")
    return problems


def check_scan_stream(lines: list[str], ticks: int, step_deg: float) -> list[str]:
    """One frame line per tick, in the back-and-forth sweep order."""
    if len(lines) != ticks:
        return [f"scan_stream.txt has {len(lines)} lines for {ticks} ticks"]
    sweep = max(1, int(math.floor(360.0 / step_deg + 1e-9)))
    for tick, line in enumerate(lines):
        m = SCAN_LINE.fullmatch(line)
        phase = tick % (2 * sweep)
        index = phase if phase < sweep else 2 * sweep - 1 - phase
        if m is None or int(m.group(1)) != int(round(index * step_deg)):
            return [f"scan_stream.txt line {tick + 1}: {line!r} is out of sweep order"]
    return []


def check_artifact_run(doc: dict, out_dir: str, exit_code: int, ticks: int) -> list[str]:
    """All checks on a `swarmport run` output directory."""
    if exit_code != 0:
        return [f"swarmport run exited {exit_code}"]
    with open(os.path.join(out_dir, "summary.json"), encoding="ascii") as fh:
        summary = json.load(fh)
    problems = []
    if not summary["completed_jobs"] == summary["total_jobs"] == len(doc["jobs"]):
        problems.append(f"{summary['completed_jobs']}/{len(doc['jobs'])} jobs completed")
    with open(os.path.join(out_dir, "capture.bin"), "rb") as fh:
        records, capture_problems = parse_capture(fh.read())
    problems += capture_problems
    with open(os.path.join(out_dir, "telemetry.csv"), encoding="ascii") as fh:
        problems += check_telemetry_rows(fh.read().splitlines(), records)
    with open(os.path.join(out_dir, "scan_stream.txt"), encoding="ascii") as fh:
        problems += check_scan_stream(fh.read().splitlines(), ticks, doc["sensor"]["step_deg"])
    return problems
