import json

import numpy as np
import pytest

import gridseek.bench
from gridseek.bench import build_scene
from gridseek.cli import main
from gridseek.diffusion import GaussianMixturePrior


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "scene": {"kind": "blobs", "rows": 6, "cols": 6, "components": 3,
                  "blobs_per_component": 1, "radius": 1.4, "layout_seed": 2},
        "schedule": {"steps": 30},
        "budget": 5,
        "particles": 3,
        "seeds": [1, 2],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_happy_path(tmp_path, config_path, capsys):
    out = tmp_path / "ep.csv"
    code = main(["run", "--config", str(config_path), "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("t,tau,location")
    assert len(lines) == 6
    # progress goes to stderr, machine output to files only
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "episode" in captured.err


def test_run_missing_config_names_path(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "ep.csv")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_run_bad_config_key_names_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"particless": 3}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "e.csv")])
    assert code == 1
    assert "particless" in capsys.readouterr().err


def test_unknown_flag_rejected(config_path, tmp_path, capsys):
    code = main(["run", "--config", str(config_path), "--out",
                 str(tmp_path / "e.csv"), "--speed", "9"])
    assert code == 1


def test_seed_determines_output_bytes(tmp_path, config_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(config_path), "--seed", "5", "--out", str(a)]) == 0
    assert main(["run", "--config", str(config_path), "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_policy_and_budget_overrides(tmp_path, config_path):
    out = tmp_path / "ep.csv"
    code = main(["run", "--config", str(config_path), "--seed", "1",
                 "--out", str(out), "--policy", "random", "--budget", "3"])
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 4


def test_gen_scene_writes_pair(tmp_path, config_path):
    out = tmp_path / "scene.csv"
    code = main(["gen-scene", "--config", str(config_path), "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert (tmp_path / "scene.target.csv").exists()


def test_scores_dump(tmp_path, config_path):
    out = tmp_path / "scores.csv"
    code = main(["scores", "--config", str(config_path), "--seed", "1",
                 "--out", str(out), "--step", "0"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,tau,location,expl,likeli,reward,exploit,combined"
    assert len(lines) == 1 + 36  # all candidates at step 0


def test_run_with_trace_flag(tmp_path, config_path):
    out, trace = tmp_path / "ep.csv", tmp_path / "fields.csv"
    code = main(["run", "--config", str(config_path), "--seed", "1",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    assert trace.exists()
    # 36 + 35 + 34 + 33 + 32 candidate rows over the five measurements
    assert len(trace.read_text().strip().splitlines()) == 1 + 36 + 35 + 34 + 33 + 32


@pytest.mark.parametrize("step", [99, 4, -3])
def test_scores_step_outside_budget_exits_1_before_the_episode(tmp_path, config_path,
                                                               capsys, step):
    out = tmp_path / "scores.csv"
    code = main(["scores", "--config", str(config_path), "--seed", "1",
                 "--out", str(out), "--budget", "4", "--step", str(step)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--step" in err and "0..3" in err
    assert "running episode" not in err
    assert not out.exists()


def test_run_trace_and_out_on_one_path_exits_1(tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--config", str(config_path), "--seed", "1",
                 "--out", "ep.csv", "--trace", str(tmp_path / "ep.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--trace" in err and "--out" in err
    assert not (tmp_path / "ep.csv").exists()


@pytest.mark.parametrize("command,flags", [
    ("gen-scene", ["--out", "CONFIG"]),
    ("run", ["--out", "CONFIG"]),
    ("run", ["--out", "ep.csv", "--trace", "CONFIG"]),
    ("scores", ["--out", "CONFIG"]),
    ("suite", ["--out", "CONFIG"]),
], ids=["gen-scene", "run", "run-trace", "scores", "suite"])
def test_output_naming_the_config_exits_1_and_keeps_it(tmp_path, config_path, capsys,
                                                       monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    before = config_path.read_bytes()
    flags = [str(config_path) if f == "CONFIG" else f for f in flags]
    assert main([command, "--config", config_path.name, *flags]) == 1
    err = capsys.readouterr().err
    assert "--config" in err and flags[-2] in err
    assert config_path.read_bytes() == before
    assert not (tmp_path / "ep.csv").exists()


def test_gen_scene_target_map_naming_the_config_exits_1(tmp_path, config_path, capsys):
    config = tmp_path / "scene.target.csv"
    config.write_bytes(config_path.read_bytes())
    code = main(["gen-scene", "--config", str(config), "--out", str(tmp_path / "scene.csv")])
    assert code == 1
    assert "target map" in capsys.readouterr().err
    assert config.read_bytes() == config_path.read_bytes()
    assert not (tmp_path / "scene.csv").exists()


def test_gen_scene_writes_the_scene_run_plays(tmp_path, config_path, monkeypatch):
    played = []

    def recording_build_scene(*args):
        played.append(build_scene(*args))
        return played[-1]

    monkeypatch.setattr(gridseek.bench, "build_scene", recording_build_scene)
    out = tmp_path / "scene.csv"
    assert main(["gen-scene", "--config", str(config_path), "--seed", "7",
                 "--out", str(out)]) == 0
    assert main(["run", "--config", str(config_path), "--seed", "7",
                 "--out", str(tmp_path / "ep.csv")]) == 0
    written, episode = played
    np.testing.assert_array_equal(np.loadtxt(out, delimiter=",").ravel(), episode.grid)
    np.testing.assert_array_equal(written.grid, episode.grid)


def test_suite_command(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["policies"] = ["random", "max_ent"]
    doc["budgets"] = [2, 4]
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(doc))
    out = tmp_path / "results.csv"
    code = main(["suite", "--config", str(suite_path), "--out", str(out),
                 "--jobs", "2"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "policy,B,mean_SR,std_SR,n_seeds,mean_runtime"
    assert len(lines) == 5


def test_validate_passes_on_defaults(capsys):
    code = main(["validate"])
    err = capsys.readouterr().err
    assert code == 0
    assert err.count("PASS") == 5  # one line per suite, the guided reverse step's included
    assert "PASS guided-reverse-step" in err
    assert "FAIL" not in err


def test_invalid_config_value_exit_code(tmp_path, config_path):
    doc = json.loads(config_path.read_text())
    doc["budget"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "e.csv")])
    assert code == 1


@pytest.mark.parametrize("budget", ["0", "-2"])
def test_non_positive_budget_override_rejected(tmp_path, config_path, capsys, budget):
    out = tmp_path / "ep.csv"
    code = main(["run", "--config", str(config_path), "--seed", "1",
                 "--out", str(out), "--budget", budget])
    assert code == 1
    assert "budget" in capsys.readouterr().err
    assert not out.exists()


def use_file_scene(doc, tmp_path):
    """Point ``doc`` at a 6x6 CSV grid with a single-component JSON prior."""
    grid = np.random.default_rng(0).uniform(0.0, 1.0, (6, 6))
    np.savetxt(tmp_path / "scene.csv", grid, delimiter=",")
    GaussianMixturePrior.single(grid.ravel(), 0.01).to_json(tmp_path / "prior.json")
    doc["scene"] = {"kind": "file", "path": str(tmp_path / "scene.csv")}
    doc["prior"] = {"kind": "json", "path": str(tmp_path / "prior.json")}
    return doc


def set_key(doc, dotted, value):
    *sections, last = dotted.split(".")
    for name in sections:
        doc = doc.setdefault(name, {})
    doc[last] = value


def test_file_scene_config_runs(tmp_path, config_path):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    path = tmp_path / "file.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "e.csv")]) == 0
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 0


@pytest.mark.parametrize("file_scene,key,value", [
    (False, "scene.rows", "x"),
    (False, "reward.hidden", 5),
    (False, "seeds", 5),
    (False, "schedule.steps", 20.5),
    (False, "budget", True),
    (False, "particles", 2.7),
    (False, "policy.ucb_c", "x"),
    (False, "policy.kappa_override", 5.0),
    (False, "schedule.beta_min", 2.0),
    (False, "schedule.curve", "quad"),
    (False, "seeds", [-1, 2]),
    (False, "scene.noise", [0.0, -1.0]),
    pytest.param(False, "zeta", 10**400, id="False-zeta-1e400"),
    (True, "prior", {"kind": "json"}),
    (True, "prior.kind", "zip"),
    (True, "scene.target", "bogus"),
    (True, "scene.format", "tiff"),
    (False, "prior", {"kind": "bogus"}),
    (True, "prior.variance", 0.5),
    (True, "prior.varaince", 0.5),
    pytest.param(True, "prior", {"kind": "dir", "path": "corpus", "varaince": 0.5},
                 id="True-prior-dir-varaince"),
    # blob-scene values that SceneSpec refuses when the config is built
    (False, "scene.variance", -1.0),
    (False, "scene.rows", 1),
    (False, "scene.blobs_per_component", 0),
    (False, "scene.radius", 0.0),
])
def test_bad_config_value_exits_1_under_run_and_suite(tmp_path, config_path, capsys,
                                                      file_scene, key, value):
    doc = json.loads(config_path.read_text())
    if file_scene:
        use_file_scene(doc, tmp_path)
    set_key(doc, key, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        assert key.split(".")[-1] in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.parametrize("key,value", [
    ("budgets", 5), ("budgets", [2.5]), ("policies", "random"), ("policies", [1]),
])
def test_suite_matrix_arrays_are_type_checked(tmp_path, config_path, capsys, key, value):
    doc = json.loads(config_path.read_text())
    doc[key] = value
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "results.csv"
    assert main(["suite", "--config", str(path), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "suite"])
def test_non_object_config_document_exits_1(tmp_path, capsys, command):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 1
    assert "list.json" in capsys.readouterr().err


@pytest.mark.parametrize("file_scene,key,value,named", [
    (False, "scene.block", 4, "block"),
    (True, "scene.path", "missing.csv", "missing.csv"),
    (True, "prior.path", "missing.json", "missing.json"),
    (True, "scene.target", "file", "scene.target.csv"),
    (True, "scene.path", "wide.pgm", "wide.pgm"),
    (True, "scene.path", "folder.csv", "folder.csv"),
    (True, "scene.path", "header.pgm", "header.pgm"),
    (True, "scene.path", "pixel.pgm", "pixel.pgm"),
    (True, "scene.path", "above.pgm", "above.pgm"),
])
def test_scene_and_prior_errors_exit_1_under_run_and_suite(tmp_path, config_path, capsys,
                                                           file_scene, key, value, named):
    """Errors that show only when the prior or a scene is built, not in the config."""
    doc = json.loads(config_path.read_text())
    if file_scene:
        use_file_scene(doc, tmp_path)
        (tmp_path / "wide.pgm").write_bytes(b"P5 99999999999999999999 1 255\n\0")
        (tmp_path / "folder.csv").mkdir()
        (tmp_path / "header.pgm").write_text("P2\nabc 6\n10\n" + " 1" * 36)  # size not an integer
        (tmp_path / "pixel.pgm").write_text("P2\n6 6\n10\n" + " 1" * 35 + " x")  # pixel not a number
        (tmp_path / "above.pgm").write_text("P2\n6 6\n10\n" + " 1" * 35 + " 300")  # above maxval
        value = value if key == "scene.target" else str(tmp_path / value)
    set_key(doc, key, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        assert named in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.parametrize("edit", [
    lambda d: {"dimension": 36},
    lambda d: {**d, "components": [{"mean": d["components"][0]["mean"], "variance": 0.01}]},
    lambda d: {"components": d["components"]},
    lambda d: {**d, "components": 5},
    lambda d: [1, 2],
    lambda d: {**d, "components": [{**d["components"][0], "weight": None}]},
    lambda d: {**d, "components": [{**d["components"][0],
                                    "mean": [float("nan")] * 36}]},
    lambda d: {**d, "components": [{**d["components"][0], "variance": float("nan")}]},
    lambda d: {**d, "components": [{**d["components"][0], "weight": "1.0"}]},
    lambda d: {**d, "components": [{**d["components"][0], "variance": True}]},
    lambda d: {**d, "components": [{**d["components"][0],
                                    "mean": [str(v) for v in d["components"][0]["mean"]]}]},
    lambda d: {**d, "dimension": 36.0},
], ids=["dimension-only", "no-weight", "no-dimension", "components-5", "array",
        "weight-null", "nan-mean", "nan-variance", "weight-string", "variance-bool",
        "mean-strings", "dimension-float"])
def test_malformed_prior_file_exits_1_under_run_and_suite(tmp_path, config_path, capsys,
                                                          edit):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps(edit(json.loads(prior_path.read_text()))))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        err = capsys.readouterr().err
        assert "prior" in err and "prior.json" in err, command
        assert not out.exists(), command


def test_dir_prior_with_nan_variance_exits_1(tmp_path, config_path, capsys):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "corpus").mkdir()
    np.savetxt(tmp_path / "corpus" / "a.csv", np.zeros((6, 6)), delimiter=",")
    doc["prior"] = {"kind": "dir", "path": str(tmp_path / "corpus"), "variance": float("nan")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        assert "prior" in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_suite_jobs_below_1_exits_1(tmp_path, config_path, capsys, jobs):
    out = tmp_path / "results.csv"
    assert main(["suite", "--config", str(config_path), "--out", str(out),
                 "--jobs", jobs]) == 1
    assert "jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variance", [None, "0.01", True])
def test_dir_prior_variance_of_wrong_type_exits_1(tmp_path, config_path, capsys, variance):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "corpus").mkdir()
    np.savetxt(tmp_path / "corpus" / "a.csv", np.zeros((6, 6)), delimiter=",")
    doc["prior"] = {"kind": "dir", "path": str(tmp_path / "corpus"), "variance": variance}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        assert "prior.variance" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_prior_file_that_is_not_json_exits_1_naming_it(tmp_path, config_path, capsys):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "prior.json").write_text("{not json")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1, command
        assert "prior.json" in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the blow-up overflows on purpose
def test_non_finite_particles_exit_2_under_run_and_suite(tmp_path, capsys):
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({"zeta": 1000, "budget": 8, "seeds": [1]}))
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
    assert "tau=67" in capsys.readouterr().err
    assert not out.exists()
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "suite.csv")]) == 2
    err = capsys.readouterr().err
    assert "FAILED policy=diffatd B=8 seed=1" in err and "tau=67" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the refits overflow on purpose
def test_non_finite_reward_net_exits_2_under_run_and_suite(tmp_path, capsys):
    path = tmp_path / "hot.json"
    path.write_text(json.dumps({"budget": 8, "reward": {"lr": 1000}, "seeds": [1]}))
    out = tmp_path / "trace.csv"
    assert main(["run", "--config", str(path), "--seed", "1", "--out", str(out)]) == 2
    assert "reward net went non-finite at t=5 (reward.lr=1000.0)" in capsys.readouterr().err
    assert not out.exists()
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "suite.csv")]) == 2
    err = capsys.readouterr().err
    assert "FAILED policy=diffatd B=8 seed=1" in err and "t=5 (reward.lr=1000.0)" in err


def assert_exit_1_naming(tmp_path, capsys, config, name):
    """``run`` and ``suite`` on ``config`` both exit 1 with ``name`` in the message."""
    for command in ("run", "suite"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1, command
        assert name in capsys.readouterr().err, command
        assert not out.exists(), command


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_config_that_is_a_directory_or_not_utf8_exits_1_naming_it(tmp_path, capsys, kind):
    path = tmp_path / "cfg-input.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    assert_exit_1_naming(tmp_path, capsys, path, "cfg-input.json")


def test_json_prior_path_that_is_a_directory_exits_1_naming_it(tmp_path, config_path, capsys):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "prior-folder").mkdir()
    doc["prior"]["path"] = str(tmp_path / "prior-folder")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_exit_1_naming(tmp_path, capsys, path, "prior-folder")


def test_negative_cell_in_dir_prior_exits_1_naming_its_file(tmp_path, config_path, capsys):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "corpus").mkdir()
    grid = np.zeros((6, 6))
    np.savetxt(tmp_path / "corpus" / "a.csv", grid, delimiter=",")
    grid[2, 3] = -0.25
    np.savetxt(tmp_path / "corpus" / "negative-grid.csv", grid, delimiter=",")
    doc["prior"] = {"kind": "dir", "path": str(tmp_path / "corpus")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_exit_1_naming(tmp_path, capsys, path, "negative-grid.csv")


def test_dir_prior_grid_that_is_a_directory_exits_1_naming_it(tmp_path, config_path, capsys):
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    (tmp_path / "corpus").mkdir()
    np.savetxt(tmp_path / "corpus" / "a.csv", np.zeros((6, 6)), delimiter=",")
    (tmp_path / "corpus" / "grid-folder.csv").mkdir()
    doc["prior"] = {"kind": "dir", "path": str(tmp_path / "corpus")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_exit_1_naming(tmp_path, capsys, path, "grid-folder.csv")


def test_scene_key_its_kind_does_not_read_exits_1_naming_it(tmp_path, config_path, capsys):
    blobs = tmp_path / "blobs.json"
    blobs.write_text(json.dumps({"scene": {"path": "my_grid.csv", "format": "csv"},
                                 "budget": 4, "schedule": {"steps": 20}}))
    assert_exit_1_naming(tmp_path, capsys, blobs, "scene.path is not read by a blobs scene")
    doc = use_file_scene(json.loads(config_path.read_text()), tmp_path)
    doc["scene"]["threshold"] = 5.0
    file_cfg = tmp_path / "file.json"
    file_cfg.write_text(json.dumps(doc))
    assert_exit_1_naming(tmp_path, capsys, file_cfg, "scene.threshold is not read by a file scene")
