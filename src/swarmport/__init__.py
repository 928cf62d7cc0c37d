"""Hub-coordinated swarm cargo-vehicle simulator at desk scale.

Submodules: grid (virtual-node lattice), planner (shortest paths and
space-time reservations), vehicle (PID differential drive and cargo state
machine), radar (ultrasonic sweep ranging), rfnet (framed multi-channel
radio), hub (dispatch, telemetry, metrics), sim (engine + scenarios),
cli (command line).
"""

from .errors import (
    BadInterval,
    DecodeError,
    EmptyLog,
    IllegalTransition,
    IoFailure,
    NoPath,
    NodeOutOfRange,
    OutOfTerrain,
    ScenarioInvalid,
    SwarmportError,
    UnknownVehicle,
    VehicleLimitExceeded,
)
from .grid import GridMap, NodeId, Position, build_grid
from .hub import Hub, Job, TelemetryRecord, associate_radar, ingest_telemetry, metrics, write_csv
from .planner import (
    Path,
    ReservationTable,
    TimedPath,
    astar,
    bellman_ford,
    commit,
    dijkstra,
    floyd_warshall,
    plan_space_time,
    schedule_along,
)
from .radar import (
    Disc,
    Scan,
    SweepConfig,
    WorldModel,
    detect_targets,
    echo_distance,
    encode_frame,
    render_frame,
    sweep,
    time_of_flight,
)
from .rfnet import Medium, Message, MessageKind, Radio, assign_channel, decode, encode
from .sim import (
    Scenario,
    SimReport,
    Simulation,
    default_scenario,
    run,
    scenario_from_dict,
    scenario_to_dict,
)
from .vehicle import PidState, Pose, VehicleAgent, VehicleParams, motor_step, pid_update

__version__ = "0.1.0"

__all__ = [
    "BadInterval",
    "DecodeError",
    "Disc",
    "EmptyLog",
    "GridMap",
    "Hub",
    "IllegalTransition",
    "IoFailure",
    "Job",
    "Medium",
    "Message",
    "MessageKind",
    "NoPath",
    "NodeId",
    "NodeOutOfRange",
    "OutOfTerrain",
    "Path",
    "PidState",
    "Pose",
    "Position",
    "Radio",
    "ReservationTable",
    "Scan",
    "Scenario",
    "ScenarioInvalid",
    "SimReport",
    "Simulation",
    "SwarmportError",
    "SweepConfig",
    "TelemetryRecord",
    "TimedPath",
    "UnknownVehicle",
    "VehicleAgent",
    "VehicleLimitExceeded",
    "VehicleParams",
    "WorldModel",
    "assign_channel",
    "associate_radar",
    "astar",
    "bellman_ford",
    "build_grid",
    "commit",
    "decode",
    "default_scenario",
    "detect_targets",
    "dijkstra",
    "echo_distance",
    "encode",
    "encode_frame",
    "floyd_warshall",
    "ingest_telemetry",
    "metrics",
    "motor_step",
    "pid_update",
    "plan_space_time",
    "render_frame",
    "run",
    "scenario_from_dict",
    "scenario_to_dict",
    "schedule_along",
    "sweep",
    "time_of_flight",
    "write_csv",
]
