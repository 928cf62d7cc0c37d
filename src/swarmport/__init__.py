"""Hub-coordinated swarm cargo-vehicle simulator at desk scale.

Submodules: grid (virtual-node lattice), planner (shortest paths and
space-time reservations), vehicle (PID differential drive and cargo state
machine), radar (ultrasonic sweep ranging), rfnet (framed multi-channel
radio), hub (dispatch, telemetry, metrics), sim (engine + scenarios),
cli (command line).
"""
