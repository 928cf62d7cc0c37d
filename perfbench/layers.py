"""Per-layer tracing by wrapping the program's public functions.

Each target is a function, method or property of one module.  Its
wrapper counts calls, records a span (name, start, end, parent span) and
charges the call's self time: its duration minus the time of wrapped
calls nested inside it.  A target that no longer exists is reported as
missing and the rest of the trace goes on.

Spans are kept in memory, up to `SPAN_CAP`, and written out at the end;
counts and self times are exact however many spans were kept.
"""

from __future__ import annotations

import sys
import time
from array import array

PACKAGE = "swarmport"
SPAN_CAP = 1_000_000

# (layer name, module, attribute path in the module)
TARGETS = (
    ("grid.build_grid", "grid", "build_grid"),
    ("grid.neighbors", "grid", "GridMap.neighbors"),
    ("planner.floyd_warshall", "planner", "floyd_warshall"),
    ("planner.plan_space_time", "planner", "plan_space_time"),
    ("planner.schedule_along", "planner", "schedule_along"),
    ("planner.hop_distances", "planner", "hop_distances"),
    ("planner.commit", "planner", "commit"),
    ("planner.reserve", "planner", "ReservationTable.reserve"),
    ("planner.is_free", "planner", "ReservationTable.is_free"),
    ("planner.release_vehicle", "planner", "ReservationTable.release_vehicle"),
    ("planner.table_gc", "planner", "ReservationTable.gc"),
    ("vehicle.step", "vehicle", "VehicleAgent.step"),
    ("vehicle.pose", "vehicle", "VehicleAgent.pose"),
    ("rfnet.crc", "rfnet", "crc16_ccitt_false"),
    ("rfnet.encode", "rfnet", "encode"),
    ("rfnet.decode", "rfnet", "decode"),
    ("rfnet.send", "rfnet", "Medium.send"),
    ("rfnet.poll", "rfnet", "Medium.poll"),
    ("rfnet.write_capture", "rfnet", "write_capture"),
    ("radar.echo_distance", "radar", "echo_distance"),
    ("radar.detect_targets", "radar", "detect_targets"),
    ("radar.render_frame", "radar", "render_frame"),
    ("hub.init", "hub", "Hub.__init__"),
    ("hub.dispatch", "hub", "Hub.dispatch"),
    ("hub.fleet_view", "hub", "Hub.fleet_view"),
    ("hub.ingest_telemetry", "hub", "ingest_telemetry"),
    ("hub.associate_radar", "hub", "associate_radar"),
    ("sim.validate_scenario", "sim", "validate_scenario"),
    ("sim.init", "sim", "Simulation.__init__"),
    ("sim.tick", "sim", "Simulation.tick"),
    ("sim.run_loop", "sim", "Simulation.run_loop"),
    ("sim.run", "sim", "run"),
    ("cli.main", "cli", "main"),
    ("cli.load_scenario", "cli", "load_scenario"),
    ("cli.cmd_run", "cli", "cmd_run"),
)

# Reported per-layer metrics: (metric, layer, what) with what one of
# "calls", "self_s", "raised" (NoPath raised) or "items" (frames returned).
METRICS = (
    ("hub.fleet_view.calls", "hub.fleet_view", "calls"),
    ("hub.fleet_view_s", "hub.fleet_view", "self_s"),
    ("hub.ingest_telemetry.calls", "hub.ingest_telemetry", "calls"),
    ("hub.ingest_telemetry_s", "hub.ingest_telemetry", "self_s"),
    ("hub.associate_radar_s", "hub.associate_radar", "self_s"),
    ("hub.dispatch_s", "hub.dispatch", "self_s"),
    ("hub.init_s", "hub.init", "self_s"),
    ("planner.floyd_warshall_s", "planner.floyd_warshall", "self_s"),
    ("planner.plan_space_time.calls", "planner.plan_space_time", "calls"),
    ("planner.plan_space_time_s", "planner.plan_space_time", "self_s"),
    ("planner.plan_space_time.nopath", "planner.plan_space_time", "raised"),
    ("planner.schedule_along.calls", "planner.schedule_along", "calls"),
    ("planner.schedule_along_s", "planner.schedule_along", "self_s"),
    ("planner.hop_distances.calls", "planner.hop_distances", "calls"),
    ("planner.hop_distances_s", "planner.hop_distances", "self_s"),
    ("planner.reserve.calls", "planner.reserve", "calls"),
    ("planner.reserve_s", "planner.reserve", "self_s"),
    ("planner.is_free.calls", "planner.is_free", "calls"),
    ("planner.is_free_s", "planner.is_free", "self_s"),
    ("planner.release_vehicle_s", "planner.release_vehicle", "self_s"),
    ("planner.table_gc_s", "planner.table_gc", "self_s"),
    ("grid.build_grid.calls", "grid.build_grid", "calls"),
    ("grid.build_grid_s", "grid.build_grid", "self_s"),
    ("grid.neighbors.calls", "grid.neighbors", "calls"),
    ("grid.neighbors_s", "grid.neighbors", "self_s"),
    ("rfnet.crc.calls", "rfnet.crc", "calls"),
    ("rfnet.crc_s", "rfnet.crc", "self_s"),
    ("rfnet.encode_s", "rfnet.encode", "self_s"),
    ("rfnet.decode_s", "rfnet.decode", "self_s"),
    ("rfnet.poll_s", "rfnet.poll", "self_s"),
    ("rfnet.send.calls", "rfnet.send", "calls"),
    ("rfnet.delivered.frames", "rfnet.poll", "items"),
    ("rfnet.write_capture_s", "rfnet.write_capture", "self_s"),
    ("vehicle.step.calls", "vehicle.step", "calls"),
    ("vehicle.step_s", "vehicle.step", "self_s"),
    ("vehicle.pose.calls", "vehicle.pose", "calls"),
    ("vehicle.pose_s", "vehicle.pose", "self_s"),
    ("radar.echo_distance.calls", "radar.echo_distance", "calls"),
    ("radar.echo_distance_s", "radar.echo_distance", "self_s"),
    ("radar.detect_targets_s", "radar.detect_targets", "self_s"),
    ("radar.render_frame_s", "radar.render_frame", "self_s"),
    ("sim.tick.self_s", "sim.tick", "self_s"),
    ("sim.artifacts_s", "sim.run", "self_s"),
    ("sim.validate_scenario.calls", "sim.validate_scenario", "calls"),
    ("cli.load_scenario_s", "cli.load_scenario", "self_s"),
)

UNITS = {"calls": "count", "self_s": "s", "raised": "count", "items": "count"}


class Tracer:
    """Wraps every resolvable target of `TARGETS` in the loaded program."""

    def __init__(self, targets=TARGETS) -> None:
        self.names = [name for name, _, _ in targets]
        self.targets = targets
        self.calls = [0] * len(targets)
        self.self_ns = [0] * len(targets)
        self.raised = [0] * len(targets)
        self.items = [0] * len(targets)
        self.missing: list[str] = []
        self.span_count = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[list[int]] = []  # [span index, nested ns] per open call
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------

    def reset_counts(self) -> None:
        for counter in (self.calls, self.self_ns, self.raised, self.items):
            counter[:] = [0] * len(counter)

    def metrics(self) -> dict[str, tuple[float, str]]:
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, layer, what in METRICS:
            i = index[layer]
            if what == "self_s":
                value = self.self_ns[i] / 1e9
            else:
                value = float(getattr(self, what)[i])
            out[metric] = (value, UNITS[what])
        return out

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, slot: int, fn, count_items: bool):
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns, raised, items = self.calls, self.self_ns, self.raised, self.items
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        nopath = self._nopath
        tracer = self

        def traced(*args, **kwargs):
            calls[slot] += 1
            index = tracer.span_count
            tracer.span_count = index + 1
            kept = index < SPAN_CAP
            if kept:
                names.append(slot)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0)
                ends.append(0)
            frame = [index, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except nopath:
                raised[slot] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                self_ns[slot] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if kept:
                    starts[index] = start
                    ends[index] = end
            if count_items:
                items[slot] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        errors = sys.modules.get(f"{PACKAGE}.errors")
        self._nopath = getattr(errors, "NoPath", ()) or ()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for slot, (name, module_name, path) in enumerate(self.targets):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{name} ({module_name}.{path})")
                continue
            count_items = name == "rfnet.poll"
            if isinstance(original, property):
                wrapped = property(self._wrapper(slot, original.fget, count_items), original.fset)
                self._patch(owner, attr, original, wrapped)
            elif owner_name:
                self._patch(owner, attr, original, self._wrapper(slot, original, count_items))
            else:
                # Module functions are also bound by name in every module
                # that imported them; rebind each of those references.
                wrapped = self._wrapper(slot, original, count_items)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def save_spans(self, path: str) -> None:
        """Write the kept spans as an .npz of columns plus the name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            missing=np.array(self.missing, dtype=str),
            total_spans=np.int64(self.span_count),
        )
