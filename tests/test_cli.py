"""Command-line entry points: plan, scan, run, defaults, exit codes."""

import json

import pytest

from swarmport.cli import EXIT_ERROR, EXIT_NO_PATH, EXIT_OK, main
from swarmport.grid import NodeId
from swarmport.hub import Job
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


def test_scan_stream_covers_full_revolution(tmp_path, capsys):
    # no vehicles -> every sample reads zero
    empty = Scenario()
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(scenario_to_dict(empty)))
    out_dir = tmp_path / "scan_out"
    code = main(["scan", "--scenario", str(path), "--out", str(out_dir)])
    assert code == EXIT_OK
    assert "targets: 0" in capsys.readouterr().err
    lines = (out_dir / "scan_stream.txt").read_text().splitlines()
    assert len(lines) == 360
    assert lines[0] == "0,0."
    assert lines[-1] == "359,0."
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


def test_invalid_scenario_exits_one(tmp_path, capsys):
    data = scenario_to_dict(default_scenario())
    data["sim"]["dt_s"] = 99.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_malformed_section_exits_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"terrain": 5}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "error: terrain" in err
    assert "Traceback" not in err


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


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_ERROR
