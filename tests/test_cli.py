"""Command-line entry points: plan, scan, run, defaults, exit codes."""

import json

import pytest

import swarmport.cli
import swarmport.sim
from swarmport.cli import EXIT_ERROR, EXIT_NO_PATH, EXIT_OK, main
from swarmport.grid import NodeId
from swarmport.hub import Job
from swarmport.radar import SweepConfig
from swarmport.sim import (
    Scenario,
    SimConfig,
    TerrainConfig,
    VehicleSpec,
    default_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(default_scenario())))
    return str(path)


@pytest.fixture
def quick_file(tmp_path):
    scenario = Scenario(
        terrain=TerrainConfig(),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(Job(0, NodeId(2, 0), NodeId(4, 0)),),
        sim=SimConfig(dt_s=0.05, max_ticks=100_000),
    )
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    return str(path)


# ------------------------------------------------------------------- plan


@pytest.mark.parametrize("algo", ["dijkstra", "astar", "bellman-ford", "floyd-warshall"])
def test_plan_straight_line_cost_two(algo, scenario_file, capsys):
    code = main(["plan", "--scenario", scenario_file, "--algo", algo, "--from", "0,0", "--to", "2,0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "path: (0,0) -> (1,0) -> (2,0)" in out
    assert "cost: 2" in out


def test_plan_algorithms_agree_on_detour(scenario_file, capsys):
    costs = set()
    for algo in ("dijkstra", "astar", "bellman-ford", "floyd-warshall"):
        main(["plan", "--scenario", scenario_file, "--algo", algo, "--from", "0,0", "--to", "8,8"])
        out = capsys.readouterr().out
        costs.add(out.strip().splitlines()[-1])
    assert costs == {"cost: 16"}


def test_plan_unreachable_exits_two(tmp_path, capsys):
    # bottom-left corner sealed off
    scenario = Scenario(terrain=TerrainConfig(blocked=(NodeId(1, 0), NodeId(0, 1), NodeId(1, 1))))
    path = tmp_path / "walled.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    for algo in ("dijkstra", "astar", "bellman-ford", "floyd-warshall"):
        code = main(["plan", "--scenario", str(path), "--algo", algo, "--from", "0,0", "--to", "8,8"])
        assert code == EXIT_NO_PATH
        assert "no path" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["dijkstra", "astar", "bellman-ford", "floyd-warshall"])
@pytest.mark.parametrize("ends", [("4,4", "0,0"), ("0,0", "4,4")])
def test_plan_blocked_endpoint_exits_two_with_one_message(algo, ends, scenario_file, capsys):
    """Node (4, 4) is blocked in the default scenario: every algorithm names
    the blocked endpoint, as a source and as a destination."""
    src, dst = ends
    code = main(["plan", "--scenario", scenario_file, "--algo", algo, "--from", src, "--to", dst])
    assert code == EXIT_NO_PATH
    src_node, dst_node = (tuple(int(v) for v in end.split(",")) for end in ends)
    assert capsys.readouterr().err == f"no path: endpoint blocked: {src_node} -> {dst_node}\n"


@pytest.mark.parametrize("algo", ["dijkstra", "astar", "bellman-ford", "floyd-warshall"])
@pytest.mark.parametrize("ends", [("99,99", "0,0"), ("0,0", "99,99")])
def test_plan_endpoint_outside_grid_exits_one(algo, ends, scenario_file, capsys):
    src, dst = ends
    code = main(["plan", "--scenario", scenario_file, "--algo", algo, "--from", src, "--to", dst])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: node (99, 99) outside 9x9 grid\n"


def test_plan_rejects_bad_node_format(scenario_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--scenario", scenario_file, "--algo", "astar", "--from", "zero", "--to", "2,0"])
    assert exc.value.code == EXIT_ERROR


def test_plan_rejects_unknown_algorithm(scenario_file):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--scenario", scenario_file, "--algo", "bfs", "--from", "0,0", "--to", "2,0"])
    assert exc.value.code == EXIT_ERROR


# ------------------------------------------------------------------- scan


@pytest.mark.parametrize("step_deg", [1.0, 0.39, 0.73, 2.83])
def test_scan_stream_covers_full_revolution(step_deg, tmp_path, capsys):
    # no vehicles -> every sample reads zero
    sensor = SweepConfig(step_deg=step_deg)
    empty = Scenario(sensor=sensor)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(scenario_to_dict(empty)))
    out_dir = tmp_path / "scan_out"
    code = main(["scan", "--scenario", str(path), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert "targets: 0" in capsys.readouterr().err
    lines = (out_dir / "scan_stream.txt").read_text().splitlines()
    # One line per sweep index, the last at (sweep_len - 1) * step_deg.
    assert len(lines) == sensor.sweep_len
    assert lines[0] == "0,0."
    assert lines[-1] == f"{round((sensor.sweep_len - 1) * step_deg) % 360},0."
    assert (out_dir / "scan.svg").exists()


def test_scan_sees_parked_vehicles(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "scan_out"
    main(["scan", "--scenario", scenario_file, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert "targets: 2" in err
    lines = (out_dir / "scan_stream.txt").read_text().splitlines()
    assert any(not line.endswith(",0.") for line in lines)


def test_scan_reruns_byte_identical(scenario_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["scan", "--scenario", scenario_file, "--out", str(a)])
    main(["scan", "--scenario", scenario_file, "--out", str(b)])
    assert (a / "scan_stream.txt").read_bytes() == (b / "scan_stream.txt").read_bytes()
    assert (a / "scan.svg").read_bytes() == (b / "scan.svg").read_bytes()


# ---------------------------------------------------------------- defaults


def test_defaults_round_trips(tmp_path, capsys):
    out_path = tmp_path / "default.json"
    code = main(["defaults", "--out", str(out_path)])
    assert code == EXIT_OK
    data = json.loads(out_path.read_text())
    assert scenario_from_dict(data) == default_scenario()


# -------------------------------------------------------------------- run


def test_run_completes_and_reports(quick_file, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code = main(["run", "--scenario", quick_file, "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "jobs completed: 1/1" in out
    assert (out_dir / "telemetry.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_run_honors_max_ticks_override(quick_file, tmp_path, capsys):
    out_dir = tmp_path / "short"
    code = main(["run", "--scenario", quick_file, "--out", str(out_dir), "--max-ticks", "10"])
    out = capsys.readouterr().out
    assert code == EXIT_NO_PATH
    assert "jobs completed: 0/1" in out


def test_run_seed_override_changes_loss_pattern(tmp_path, capsys):
    scenario = Scenario(
        terrain=TerrainConfig(),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(Job(0, NodeId(2, 0), NodeId(4, 0)),),
        sim=SimConfig(dt_s=0.05, max_ticks=100_000),
    )
    data = scenario_to_dict(scenario)
    data["medium"]["loss_probability"] = 0.4
    path = tmp_path / "lossy.json"
    path.write_text(json.dumps(data))
    outs = []
    for seed in ("1", "2"):
        out_dir = tmp_path / f"seed{seed}"
        code = main(["run", "--scenario", str(path), "--out", str(out_dir), "--seed", seed])
        assert code == EXIT_OK
        outs.append((out_dir / "capture.bin").read_bytes())
        capsys.readouterr()
    assert outs[0] != outs[1]


# ------------------------------------------------------------ error paths


def test_missing_scenario_file_exits_one(tmp_path, capsys):
    code = main(["plan", "--scenario", str(tmp_path / "nope.json"), "--algo", "astar", "--from", "0,0", "--to", "1,0"])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_invalid_json_exits_one(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR


@pytest.mark.parametrize(
    "content, reason",
    [
        (b'{"sim": {"dt_s": "\xff\xfe"}}', "not UTF-8 text"),
        (b'{"terrain": ' + b"[" * 5000 + b"]" * 5000 + b"}", "nested too deeply"),
    ],
    ids=["non_utf8", "nested_5000"],
)
def test_unreadable_document_exits_one_naming_the_file(content, reason, tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith(f"error: {path}: {reason}")
    assert "Traceback" not in err


def test_integer_past_the_digit_limit_exits_one(tmp_path, capsys):
    """A 5,000-digit latency is past the digit limit that recent
    interpreters set on reading an integer, and negative on any other:
    either way the run exits 1 with an error line."""
    text = json.dumps(scenario_to_dict(default_scenario()))
    text = text.replace('"latency_ticks": 0', '"latency_ticks": -' + "9" * 5000)
    path = tmp_path / "huge_int.json"
    path.write_text(text)
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_invalid_scenario_exits_one(tmp_path, capsys):
    data = scenario_to_dict(default_scenario())
    data["sim"]["dt_s"] = 99.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_reversing_spin_up_exits_one_naming_the_vehicle(tmp_path, capsys):
    """At dt = tau / 2 a motor gain of 3 spins the wheels backwards."""
    data = scenario_to_dict(default_scenario())
    data["vehicles"][0]["params"] = {"motor_gain": 3.0, "motor_time_constant_s": 0.1, "cruise_speed_m_s": 0.3}
    data["sim"]["dt_s"] = 0.05
    path = tmp_path / "reversing.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: vehicles[0]: dt 0.05 reverses the wheels")
    assert "Traceback" not in err


def test_sweep_step_below_its_floor_exits_one(tmp_path, capsys):
    """A step under 0.01 degrees is refused before the engine builds its
    per-index sweep tables."""
    data = scenario_to_dict(default_scenario())
    data["sensor"]["step_deg"] = 0.009
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: sensor.step_deg must be in [0.01, 15], got 0.009")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_non_finite_number_exits_one(tmp_path, capsys):
    data = scenario_to_dict(default_scenario())
    data["sim"]["dt_s"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))
    assert "NaN" in path.read_text()
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: sim.dt_s: expected a finite number, got nan")
    assert "Traceback" not in err


def test_malformed_section_exits_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"terrain": 5}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "error: terrain" in err
    assert "Traceback" not in err


def test_node_index_beyond_destination_reach_exits_one(tmp_path, capsys):
    """72,778 nodes across: the job's x index 69995 does not fit the 16-bit
    ASSIGN_DESTINATION field, so the scenario is refused before tick 0."""
    scenario = Scenario(
        terrain=TerrainConfig(width_m=65.5, height_m=0.0009, spacing_m=0.0009),
        vehicles=(VehicleSpec(0, NodeId(69990, 0)),),
        jobs=(Job(0, NodeId(69995, 0), NodeId(69995, 1)),),
    )
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: terrain.spacing_m: 0.0009 m makes a 72778x2 grid")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_grid_past_a_million_nodes_exits_one(tmp_path, capsys):
    """2 m at 2 mm spacing is 1001 x 1001 nodes.  With no jobs the run
    would end at once, so the refusal comes from validation alone."""
    data = scenario_to_dict(default_scenario())
    data["terrain"]["spacing_m"] = 0.002
    data["jobs"] = []
    path = tmp_path / "fine_grid.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: terrain.spacing_m: 0.002 m makes a 1001x1001 grid")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_vehicle_faster_than_telemetry_can_encode_exits_one(tmp_path, capsys):
    """Refused before tick 0, naming the vehicle, rather than failing to
    encode its speed mid-run."""
    data = scenario_to_dict(default_scenario())
    data["terrain"].update(width_m=60.0, height_m=60.0, spacing_m=7.5)
    for v in data["vehicles"]:
        v["params"] = {"wheel_radius_m": 1.0, "motor_gain": 20.0, "cruise_speed_m_s": 100.0}
    data["sim"]["telemetry_interval"] = 1
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: vehicles[0]: peak drive speed ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_walled_in_job_exits_one_naming_it(tmp_path, capsys):
    scenario = Scenario(
        terrain=TerrainConfig(blocked=(NodeId(3, 4), NodeId(5, 4), NodeId(4, 3), NodeId(4, 5))),
        vehicles=(VehicleSpec(0, NodeId(0, 0)),),
        jobs=(Job(0, NodeId(4, 4), NodeId(7, 7)),),
        sim=SimConfig(max_ticks=3_000),
    )
    path = tmp_path / "walled.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: jobs: job 0 (pickup (4, 4), destination (7, 7)): ")
    assert "Traceback" not in err


def count_validations(monkeypatch):
    """The `validate_scenario` calls from here on, by the CLI and the engine alike."""
    calls = []
    check = swarmport.sim.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        return check(scenario)

    monkeypatch.setattr(swarmport.sim, "validate_scenario", counted)
    monkeypatch.setattr(swarmport.cli, "validate_scenario", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["run", "--out", "o"],
    ["plan", "--algo", "astar", "--from", "0,0", "--to", "2,0"],
    ["scan", "--out", "o"],
])
def test_each_command_validates_its_scenario_once(argv, quick_file, tmp_path, monkeypatch, capsys):
    calls = count_validations(monkeypatch)
    argv = [str(tmp_path / a) if a == "o" else a for a in argv]
    assert main([argv[0], "--scenario", quick_file, *argv[1:]]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["plan", "--algo", "astar", "--from", "0,0", "--to", "2,0"],
    ["scan", "--out", "o"],
])
def test_plan_and_scan_refuse_a_blocked_home_naming_the_vehicle(argv, tmp_path, capsys):
    scenario = Scenario(terrain=TerrainConfig(blocked=(NodeId(2, 2),)), vehicles=(VehicleSpec(0, NodeId(2, 2)),))
    path = tmp_path / "blocked.json"
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    argv = [str(tmp_path / a) if a == "o" else a for a in argv]
    assert main([argv[0], "--scenario", str(path), *argv[1:]]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: vehicles[0]: home_node (2, 2) is blocked\n"
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_ERROR
