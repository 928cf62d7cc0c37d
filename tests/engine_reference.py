"""The engine run with no quiet path, for the tests and the identity sweep:
every phase of a tick runs on every tick."""

from swarmport.sim import Simulation


def every_phase_tick(sim):
    """A tick with no quiet path: every phase runs on every tick.  The trace
    covers every tick run, so it needs no call of its own."""
    now = sim.tick_count
    sim._radio_phase(now)
    sim._vehicle_phase(now)
    sim._radar_phase(now)
    sim._telemetry_phase(now)
    sim.tick_count += 1


def every_phase_run(scenario, stop):
    """A traced, captured run of ``scenario`` by `every_phase_tick` until it
    is done or has run ``stop`` ticks, or ``max_ticks`` if fewer."""
    sim = Simulation(scenario, trace=True, capture=True)
    stop = min(stop, scenario.sim.max_ticks)
    while sim.tick_count < stop:
        every_phase_tick(sim)
        if sim.all_done:
            break
    return sim
