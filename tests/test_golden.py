"""Golden artifact hashes: a scenario plus a seed fixes every byte written.

The hashes below are the sha256 of every file that `run` writes for eight
scenarios, and of the document `swarmport defaults` writes.  Two scenarios
also run after a round trip through their JSON document, which pins the
parser to the same artifacts.  A change that alters any artifact byte fails
here; a change that means to alter them must re-record the hashes and say why.
"""

import dataclasses
import hashlib
import json

import pytest
from test_acceptance import crossing_scenario
from test_sim import one_vehicle_scenario, pickup_at_home_scenario

from swarmport.cli import EXIT_OK, main
from swarmport.sim import MediumConfig, default_scenario, run, scenario_from_dict, scenario_to_dict


def crossing_beam_scenario(seed, beam_halfwidth_deg):
    scenario = crossing_scenario(seed)
    sensor = dataclasses.replace(scenario.sensor, beam_halfwidth_deg=beam_halfwidth_deg)
    return dataclasses.replace(scenario, sensor=sensor)


SCENARIOS = {
    "default": default_scenario,
    "default_loss30_seed7": lambda: dataclasses.replace(
        default_scenario(), medium=MediumConfig(loss_probability=0.3, seed=7)
    ),
    # The only golden run with radio latency: frames wait in inboxes for
    # ticks, so a tick that skips polling must still deliver on time.
    "default_latency3_loss30_seed7": lambda: dataclasses.replace(
        default_scenario(), medium=MediumConfig(loss_probability=0.3, latency_ticks=3, seed=7)
    ),
    # The only golden run whose load switch is pressed as an order arrives,
    # before that tick's step: it pins when that vehicle repeats ACTIVATE.
    "pickup_at_home_loss30_seed7": lambda: pickup_at_home_scenario(MediumConfig(0.3, 0, 7)),
    # The only golden run in which one vehicle serves two jobs in turn: it
    # pins that each retrace drives back over its own trip only.
    "one_vehicle_two_jobs": one_vehicle_scenario,
    "crossing_3": lambda: crossing_scenario(3),
    # The only golden run with a nonzero beam: it pins the clamped-angle echo.
    "crossing_3_beam5": lambda: crossing_beam_scenario(3, 5.0),
    "crossing_11": lambda: crossing_scenario(11),
}

DEFAULTS_DOCUMENT = "4c7ddac92e5dc8b8784805ecb298a414b9bd8cee1785479c9bd89cbf7538bedb"

GOLDEN = {
    "default": {
        "capture.bin": "d1ad5c70e0782b36e612c52dc676f1966ffd3d639308ab5c9b8da0683ecaab7d",
        "frames/sweep_0001.svg": "73ad399bba81da293fb81a1491e92330032f3af05138e9c90508211faf1c5c6d",
        "frames/sweep_0010.svg": "e823d0de0ecf7535acc42fe1cea7f92d4a4d2049f23a461329675750aa338bd1",
        "frames/sweep_0020.svg": "96d1cbc4d0084adc8768d976143080f00d78ae2b75e5c597808c688bddc06205",
        "scan_stream.txt": "f9e70c55f542626a73e8ac9a84fbdbddf5af289b6be4b560d626a00e499475b2",
        "summary.json": "577f48dc4a19889c5e266e0413e56cf30ff169dea37385984add50b89cec88ab",
        "summary.txt": "c25426577521da3b1b49fdf34db6ef9fe3667e6dd7768f17358ba74ad4080025",
        "telemetry.csv": "a43b585d42b01127d06d5c4abe853c71285f61b02fa1b5d823024e875ce4604f",
    },
    "default_loss30_seed7": {
        "capture.bin": "926a704677ba8d4861ca71dc9ec1e6044e947264bc35fc37515edd9b13565d6c",
        "frames/sweep_0001.svg": "50494e75fcbcae5d18b766f9434079b6f6edc003eb9f35d32add8ac1019436ae",
        "frames/sweep_0010.svg": "3263abf8db881ffb7423eec2364032ea7428cae30c3bd155002f50e62e7e772d",
        "frames/sweep_0020.svg": "218f750481fdb76bd74b86c7e1a66768c106ce0353b489d099f07f49f0df7ea2",
        "scan_stream.txt": "f24f1b08010c5390571d57f0052efba8928ee719564275ef2a5cb70510e429dd",
        "summary.json": "79db90237f4e905857ca3b682863d111314e334051bc9f6ff405e04f8359f806",
        "summary.txt": "0fcc1077bde52e4ec2a703b01e6a0371c99c8e42d234387ce5b10ff1ed586d30",
        "telemetry.csv": "279f51ae6fa8b7e9d7bf899708a853624110daf3309f65936490cf0eaab7e0ee",
    },
    "default_latency3_loss30_seed7": {
        "capture.bin": "d575408fa9eb462da15f8d4cf210f28bbf7fadeda3806396a1422151dedfba44",
        "frames/sweep_0001.svg": "1c43c16069b27c198182c964b7ad59d2d4420569ee3d7cf17739e03e87efb5cd",
        "frames/sweep_0010.svg": "59bfbaefffd7cd5905d06a45545ce8298bbc0fad47237a64384bba4cca182607",
        "frames/sweep_0020.svg": "36c2a6357f19a0377873ee504d36430abdf8cf3302c056df31913bd53d8f66df",
        "scan_stream.txt": "6381896ebcd9995adba740c246c2482630a45eb1f91fce22797be6a0aae8f4fe",
        "summary.json": "30e71c44fabf845acfb34b24a0656bd52a705445d325b563a5fe8227ebcdc238",
        "summary.txt": "4e0f3c75372fd294db0f37d673b16e5e358b60026b7dc335bcdc9aea85594cec",
        "telemetry.csv": "d0b04cf28d0b4c844e51a03c3d3dab6cfa3b24d4b48f62b0d2d1fb82863b847b",
    },
    "pickup_at_home_loss30_seed7": {
        "capture.bin": "f8882688b90e6b48d58ab7b9588a73ebb90fd897b62cb7606353fbed9d99f754",
        "frames/sweep_0001.svg": "ddc2f7a4d135fb453787c6804119a6503f9b6b6201ebc6c09dd09d0d59c03226",
        "frames/sweep_0010.svg": "4fbc0dff6f8f9d713d5df5ff4ffe714e7a9b1fa756cfb6cf8d97519c3b248124",
        "frames/sweep_0020.svg": "218f750481fdb76bd74b86c7e1a66768c106ce0353b489d099f07f49f0df7ea2",
        "scan_stream.txt": "e2dda00c0147d626ac5433665c4fd740a5bfb9a8083d1ce7fc6e946bb524b04e",
        "summary.json": "b9a290b93a9594df7cfce6198f131286a930832e674b863efb27cebc16421e7e",
        "summary.txt": "44230ed04eafd24c888a84f20a6af70a00dc587138154bb7b45a82752ef40601",
        "telemetry.csv": "96e962fbe49c43c15ec2527749ba29d32fbec15c84fdf34f3d86f18fa3b42a47",
    },
    "one_vehicle_two_jobs": {
        "capture.bin": "f6172daa5fa1cec2a76825f54285afdc3c826dffce0da2d1602a057286e8a1ed",
        "frames/sweep_0001.svg": "b9d59e382fa94a1283f8d51f8559568b7a2fa0d02168bbe923c6aad711d1f740",
        "frames/sweep_0010.svg": "6d9e70994bb0b23c98f3ff7d34eb30d25910897eff67dafb07d1063778d63e4d",
        "frames/sweep_0020.svg": "26d776526a6cd9b3e5bae366c63a394c0f1d2aead15ba97b3fa20ef09745afe6",
        "frames/sweep_0030.svg": "06797eefd86b8b9dc5f25ad624023f6c13879243a0a6332563a5c33bef3b031b",
        "frames/sweep_0040.svg": "5c6c262a0ad3a52e53ff4311233f27ee9469a477b1c7aa3e45b3f160c790d8af",
        "scan_stream.txt": "49352d15a041787a71ecbb7735e2de2b1d643b8c58cb14fd2d8b1a969c955f7b",
        "summary.json": "4b7457ae2ac20ab8d769a7adc0d6e021db5782981cea32c4b50516193b735104",
        "summary.txt": "f3e1f5d856ac2c3817ddeda62dbd5eebdf2da26319d986db6b160b97c1da969d",
        "telemetry.csv": "76fdae706a3d4222c8f9050df0f97cbde555f737238f555e5db820cf11632036",
    },
    "crossing_3": {
        "capture.bin": "9602ad0e4c0b81da0d71783391a5aab3d1e3c415933c1568545626febdafd910",
        "frames/sweep_0001.svg": "a1ee1f889eda5fd4c25a6bf9bc8ddfe1f137631aad8db9d2a55960427706679f",
        "frames/sweep_0010.svg": "b0510482a4652c0a5347c976fa15bab5dd7c47a327f3d7bfcd66c1f409952c03",
        "scan_stream.txt": "a39ca48bd5f1c6c530939535e4f0f70602efe324a7dfc5663e54c8fb07e7c084",
        "summary.json": "fbd47cf363a27511c187cfe06744a133f2a3b79f312b88e63904de2433f9efc4",
        "summary.txt": "d86eb18d3b86f6404e794882f2328e7804ff59e991433e1c7ce8e3fd57bafb7c",
        "telemetry.csv": "05f9956096dd66259a7188ccb750a6dfe7c1f459410dc6f6e0289d33b1e0d521",
    },
    "crossing_3_beam5": {
        "capture.bin": "9602ad0e4c0b81da0d71783391a5aab3d1e3c415933c1568545626febdafd910",
        "frames/sweep_0001.svg": "c9e5bd5f245a05bccc36a9052d5150065cb03206631dc010d3b0f4c6dfdf96fd",
        "frames/sweep_0010.svg": "ecf8797740bada288cbc95f2920299bcab269a8ab1384f83a2a19c77f7b91a43",
        "scan_stream.txt": "fa3434edaa2363856817e54a221de26971fbb3f6deb9fb0dfb65d25f9d7b9650",
        "summary.json": "fbd47cf363a27511c187cfe06744a133f2a3b79f312b88e63904de2433f9efc4",
        "summary.txt": "d86eb18d3b86f6404e794882f2328e7804ff59e991433e1c7ce8e3fd57bafb7c",
        "telemetry.csv": "05f9956096dd66259a7188ccb750a6dfe7c1f459410dc6f6e0289d33b1e0d521",
    },
    "crossing_11": {
        "capture.bin": "0be1e75ce9c48f801d70f6bf673eccda5f588c48ffcda7250898c465d70c029c",
        "frames/sweep_0001.svg": "0c996c5365694360843dc3e190669a03920cc415bdbccd6df6aa2dbfa097ac5d",
        "scan_stream.txt": "3eb1808f8fe8f098ecd2c5d950bf886d2d1c68cd4f84f37adb2f9c5a2f2eac20",
        "summary.json": "39a552d7b309a52723edf4f19e7df0a9cf3dfbada0fbc61a6b93c30708fca9a5",
        "summary.txt": "7cee71d8a33669c6be15ae75cae636576f5c894dcb1dd5040cd6517e7139b964",
        "telemetry.csv": "50ec79da180b07b8c84945f09b7a9a2f07bd78619806ee348a4de668e9b3a913",
    },
}


def artifact_hashes(out_dir):
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifacts_match_golden_hashes(name, tmp_path):
    run(SCENARIOS[name](), tmp_path)
    assert artifact_hashes(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["default", "default_loss30_seed7"])
def test_parsed_document_matches_golden_hashes(name, tmp_path):
    data = json.loads(json.dumps(scenario_to_dict(SCENARIOS[name]())))
    run(scenario_from_dict(data), tmp_path)
    assert artifact_hashes(tmp_path) == GOLDEN[name]


def test_defaults_document_matches_golden_hash(tmp_path, capsys):
    path = tmp_path / "default.json"
    assert main(["defaults", "--out", str(path)]) == EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULTS_DOCUMENT
