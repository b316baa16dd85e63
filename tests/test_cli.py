import json
from unittest import mock

import numpy as np
import pytest

from tasnsc import cli, predictor
from tasnsc.cli import main
from tasnsc.geometry import curbside_stack, frame_to_config, load_frame
from tasnsc.sparse_coding import GridSpec, pair_votes
from tasnsc.synthgen import scene_a, scene_b, scene_to_config
from tasnsc.trajectory import load_dataset


def no_work(name):
    """Patch ``cli.<name>`` to fail the test if a command calls it."""
    return mock.patch.object(cli, name, side_effect=AssertionError(f"{name} ran before the outputs were checked"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scene/frame configs plus small generated datasets for CLI runs."""
    root = tmp_path_factory.mktemp("cli")
    scenes = {"a": scene_a(), "b": scene_b()}
    paths = {}
    for name, scene in scenes.items():
        scene_path = root / f"scene_{name}.json"
        scene_path.write_text(json.dumps(scene_to_config(scene)))
        frame_path = root / f"frame_{name}.json"
        frame_path.write_text(json.dumps(frame_to_config(scene.frame())))
        paths[f"scene_{name}"] = scene_path
        paths[f"frame_{name}"] = frame_path
        train = root / f"train_{name}.jsonl"
        test = root / f"test_{name}.jsonl"
        assert main(["generate", "--scene", str(scene_path), "--n", "40", "--out", str(train)]) == 0
        assert (
            main(
                ["generate", "--scene", str(scene_path), "--n", "8", "--out", str(test),
                 "--seed", "1007", "--tag", "test"]
            )
            == 0
        )
        paths[f"train_{name}"] = train
        paths[f"test_{name}"] = test
    paths["root"] = root
    return paths


class TestGenerate:
    def test_writes_requested_count(self, workdir, tmp_path):
        out = tmp_path / "data.jsonl"
        assert main(["generate", "--scene", str(workdir["scene_a"]), "--n", "15", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 15

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--scene", str(tmp_path / "nope.json"), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_out_into_missing_directory_exits_3(self, workdir, tmp_path, capsys):
        out = tmp_path / "missing" / "d.jsonl"
        with no_work("generate"):
            assert main(["generate", "--scene", str(workdir["scene_a"]), "--n", "2", "--out", str(out)]) == 3
        assert f"cannot write output: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err

    def test_seed_reproducible_byte_identical(self, workdir, tmp_path):
        f1, f2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        args = ["generate", "--scene", str(workdir["scene_a"]), "--n", "10", "--seed", "3"]
        assert main(args + ["--out", str(f1)]) == 0
        assert main(args + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("dt", ["nan", "inf", "0"])
    def test_bad_dt_exits_2(self, workdir, tmp_path, capsys, dt):
        rc = main(["generate", "--scene", str(workdir["scene_a"]), "--n", "5", "--dt", dt,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "dt must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["speed_mean", "speed_sd", "exit_len", "noise_sd"])
    def test_non_finite_scene_exits_2(self, workdir, tmp_path, key):
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg[key] = float("nan")
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize(
        "edit, path",
        [({"exit_len": 1e308}, "straight"), ({"approach_len": 1e308}, "straight"), ({"corner": [1e308, 0.0]}, "left")],
        ids=["exit-len", "approach-len", "corner"],
    )
    def test_overflowing_scene_exits_2(self, workdir, tmp_path, capsys, edit, path):
        # Each length is finite, but a path built from it has a point or an
        # arc length that overflows; the corner's turning paths overflow
        # only in their arc length.
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg.update(edit)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"the scene's {path} path has a non-finite point or length" in capsys.readouterr().err

    def test_path_past_the_point_budget_exits_2(self, workdir, tmp_path, capsys):
        # Finite, but the straight path's lookup table would hold 5e13 points.
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg["exit_len"] = 1e12
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "the scene's straight path is 1e+12 m long, more than the 2.097e+04 m" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["speed_mean", "speed_sd"])
    def test_unbounded_speed_exits_2(self, workdir, tmp_path, capsys, key):
        # A speed sd of 1e308 overflowed the walk's running sum; a mean of
        # 1e308 passed the whole path in one step.
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg[key] = 1e308
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "speed_mean + 3 * speed_sd <= 3.352e+153 m/s" in capsys.readouterr().err

    def test_dt_past_the_shortest_path_exits_2(self, workdir, tmp_path, capsys):
        # Scene A's slowest step is 0.8 m/s and its shortest path 15.7 m, so
        # a 20 s step would write one-point trajectories.
        rc = main(["generate", "--scene", str(workdir["scene_a"]), "--n", "5", "--dt", "20",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dt=20.0 s is too long: a slowest step, 0.8 m/s, covers the 15.66 m intent path" in err
        assert main(["generate", "--scene", str(workdir["scene_a"]), "--n", "5", "--dt", "19",
                     "--out", str(tmp_path / "o")]) == 0

    def test_walk_past_the_point_budget_exits_2(self, workdir, tmp_path, capsys):
        # A 1e-7 s step walks scene A's 16 m straight path at 0.8 m/s in 2e8
        # steps, 1.5 GiB of speed draws; generate refuses before drawing.
        out = tmp_path / "o"
        rc = main(["generate", "--scene", str(workdir["scene_a"]), "--n", "1", "--dt", "1e-7", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "dt=1e-07 s is too short: walking the 16 m intent path takes over 1048576 steps" in err
        assert not out.exists()

    def test_intent_mix_list_exits_2(self, workdir, tmp_path, capsys):
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg["intent_mix"] = []
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "intent mix must map intents to proportions, got []" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [1.5, -3])
    def test_bad_scene_seed_exits_2(self, workdir, tmp_path, capsys, seed):
        cfg = json.loads(workdir["scene_a"].read_text())
        cfg["seed"] = seed
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(cfg))
        rc = main(["generate", "--scene", str(scene), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "scene seed must be a nonnegative integer" in capsys.readouterr().err

    def test_bad_scene_json_exits_2(self, tmp_path):
        bad = tmp_path / "scene.json"
        bad.write_text("{not json")
        rc = main(["generate", "--scene", str(bad), "--n", "5", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestTrain:
    def test_defaults_give_multiple_patterns(self, workdir, capsys):
        out = workdir["root"] / "model_a.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == 5
        assert len(doc["columns"]) == len(doc["atoms"][0])
        assert len(doc["patterns"]) >= 3
        # One record per nonzero transition, holding its flow's data alone.
        assert len(doc["patterns"]) == np.count_nonzero(doc["transitions"])
        assert all(set(rec) == {"inputs", "vx", "vy"} for rec in doc["patterns"])
        assert "patterns" in capsys.readouterr().out

    def test_k1_gives_single_atom(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--k", "1"]
        )
        assert rc == 0
        assert len(json.loads(out.read_text())["atoms"]) == 1

    def test_out_into_missing_directory_exits_3(self, workdir, tmp_path, capsys):
        out = tmp_path / "missing" / "m.json"
        with no_work("train"):
            rc = main(
                ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]), "--out", str(out)]
            )
        assert rc == 3
        assert f"cannot write output: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err

    def test_out_into_read_only_directory_exits_3(self, workdir, tmp_path, capsys):
        out = tmp_path / "m.json"
        with no_work("train"), mock.patch.object(cli.os, "access", return_value=False):
            rc = main(
                ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]), "--out", str(out)]
            )
        assert rc == 3
        assert f"cannot write output: [Errno 13] Permission denied: '{out}'" in capsys.readouterr().err

    def test_empty_dataset_exits_3(self, workdir, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(
            ["train", "--data", str(empty), "--frame", str(workdir["frame_a"]),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 3

    def test_dt_mismatch_exits_3(self, workdir, tmp_path, capsys):
        data = tmp_path / "quarter.jsonl"
        assert main(["generate", "--scene", str(workdir["scene_a"]), "--n", "5", "--dt", "0.25",
                     "--out", str(data)]) == 0
        rc = main(
            ["train", "--data", str(data), "--frame", str(workdir["frame_a"]),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 3
        assert "dt=0.25" in capsys.readouterr().err

    def test_non_finite_data_exits_2(self, workdir, tmp_path):
        data = tmp_path / "nan.jsonl"
        data.write_text('{"id": "a", "dt": 0.5, "points": [[0, 0, 0], [0.5, NaN, 0]]}\n')
        rc = main(
            ["train", "--data", str(data), "--frame", str(workdir["frame_a"]),
             "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2

    def test_config_file_with_flag_override(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k_atoms": 9, "iters": 40}))
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--config", str(cfg), "--k", "4"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["atoms"]) == 4  # flag beats config file
        assert doc["config"]["iters"] == 40  # config file beats default

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"dt": float("nan")}, "dt must be positive and finite"),
            ({"t_pred": float("inf")}, "t_pred must be positive and finite"),
            ({"sparsity": float("nan")}, "sparsity"),
            ({"k_atoms": 2.5}, "k_atoms must be an integer"),
            ({"max_gp_points": 10.5}, "max_gp_points must be an integer"),
            ({"top_m": 1.5}, "top_m must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"kernel": {"lenght_x": 2.0, "length_y": 2.0, "signal_sd": 1.0, "noise_sd": 0.4}}, "'lenght_x'"),
            ({"kernel": {"length_x": 2.0, "signal_sd": 1.0, "noise_sd": 0.4}}, "missing keys ['length_y']"),
            ({"kernel": {"length_x": float("nan"), "length_y": 2.0, "signal_sd": 1.0, "noise_sd": 0.4}},
             "length_x must be positive and finite"),
            # Train always fits the grid, with cells of grid_cell.
            ({"grid": None}, "pipeline config: unknown keys ['grid']"),
            ({"grid": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "cell": 1.0}, "grid_cell": 3.0},
             "pipeline config: unknown keys ['grid']"),
            ({"grid_cell": 0.0}, "grid_cell must be positive and finite"),
            ({"grid_cell": float("nan")}, "grid_cell must be positive and finite"),
            ({"t_pred": 0.2, "iters": 20}, "t_pred must be at least one step of dt, got 0.2 / 0.5"),
        ],
    )
    def test_bad_config_exits_2(self, workdir, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--config", str(path)]
        )
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_padded_grid_exits_3(self, workdir, tmp_path, capsys):
        # Two cells per axis, but the bounds padded by one cell reach
        # +-1e308 and their difference overflows.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_cell": 1e308, "k_atoms": 2, "iters": 5}))
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--config", str(path)]
        )
        assert rc == 3
        assert "grid cell 1e+308 pads the data bounds to [-1e+308, 1e+308]" in capsys.readouterr().err
        assert not out.exists()

    def test_millimetre_cells_train(self, workdir, tmp_path):
        # The grid has more than 2**26 features, but features and atoms span
        # only those the data vote in, at most one per voting point pair.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"grid_cell": 0.001}))
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--config", str(path)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        grid = GridSpec(**doc["grid"])
        assert grid.dim > 2**26
        data = load_dataset(workdir["train_a"])
        votes = pair_votes(*curbside_stack(load_frame(workdir["frame_a"]), data.trajectories), data.dt, grid)
        assert len(doc["columns"]) == len(doc["atoms"][0]) <= np.count_nonzero(votes.voting)

    def test_feature_budget_exits_3(self, workdir, tmp_path, capsys):
        # 40 trajectories vote in about 100 features at the default cell:
        # a feature matrix of about 4000 entries.
        out = tmp_path / "model.json"
        with mock.patch.object(predictor, "_MAX_DENSE_ENTRIES", 1000):
            rc = main(
                ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]), "--out", str(out)]
            )
        assert rc == 3
        err = capsys.readouterr().err
        assert "training failed: grid_cell 1.0 gives 40 trajectories x " in err
        assert "voted features = " in err
        assert "feature entries, more than the budget of 1000" in err
        assert not out.exists()

    def test_dictionary_budget_exits_3(self, workdir, tmp_path, capsys):
        # 100000 atoms would need a (K, K) array of 1e10 entries; train
        # refuses before learning the dictionary.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k_atoms": 100000, "iters": 1}))
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--config", str(path)]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "training failed: k_atoms 100000 with " in err
        assert f"dictionary arrays of 10000000000 entries, more than the budget of {2**26}" in err
        assert not out.exists()

    def test_non_finite_frame_exits_2(self, workdir, tmp_path, capsys):
        frame = tmp_path / "frame.json"
        frame.write_text('{"origin": [NaN, 0], "curb1": [1, 0], "curb2": [0, 1]}')
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(frame), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 2
        assert "frame origin must be finite" in capsys.readouterr().err

    def test_baseline_mode(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--mode", "baseline"]
        )
        assert rc == 0
        assert json.loads(out.read_text())["config"]["mode"] == "baseline"


@pytest.fixture(scope="module")
def model_a_path(workdir):
    out = workdir["root"] / "model_for_eval.json"
    rc = main(
        ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]), "--out", str(out)]
    )
    assert rc == 0
    return out


def as_version_1(doc):
    """The model file as version 1 wrote it: a dictionary record, and a kernel in every pattern."""
    config = doc["config"]
    doc["version"] = 1
    doc["dictionary"] = {"k": config["k_atoms"], "lambda": config["sparsity"], "seed": config["seed"],
                         "atoms": doc.pop("atoms")}
    for rec in doc["patterns"]:
        rec["kernel"] = config["kernel"]


def as_version_2(doc):
    """The model file as version 2 wrote it: the config held the fixed-grid option, null."""
    doc["version"] = 2
    doc["config"]["grid"] = None


def as_version_3(doc):
    """The model file as version 3 wrote it: no columns, atoms over every grid feature."""
    as_version_4(doc)
    doc["version"] = 3
    atoms = np.zeros((len(doc["atoms"]), GridSpec(**doc["grid"]).dim))
    atoms[:, doc.pop("columns")] = doc["atoms"]
    doc["atoms"] = atoms.tolist()


def as_version_4(doc):
    """The model file as version 4 wrote it: each pattern record named its pair and prior weight."""
    doc["version"] = 4
    counts = np.array(doc["transitions"])
    for (i, j), rec in zip(np.argwhere(counts).tolist(), doc["patterns"]):
        rec.update(atoms=[i, j], prior_weight=float(counts[i, j] / counts.sum()))


class TestEvaluate:
    def test_report_written(self, workdir, model_a_path, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(report)]
        )
        assert rc == 0
        doc = json.loads(report.read_text())
        assert {"classification_accuracy", "mean_mhd", "mean_predict_time", "rows"} <= set(doc)
        out = capsys.readouterr().out
        assert "Classification Accuracy (%)" in out
        assert out.splitlines()[2].split()[0] == "TASNSC"

    def test_threshold_180_is_100_percent(self, workdir, model_a_path, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(report), "--threshold", "180"]
        )
        assert rc == 0
        assert json.loads(report.read_text())["classification_accuracy"] == pytest.approx(100.0)

    @pytest.mark.parametrize("value", ["nan", "-5", "inf", "180.5"])
    def test_threshold_outside_0_to_180_exits_2(self, workdir, model_a_path, tmp_path, capsys, value):
        report = tmp_path / "report.json"
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(report), "--threshold", value]
        )
        assert rc == 2
        assert "threshold must be an angle in [0, 180] degrees" in capsys.readouterr().err
        assert not report.exists()

    def test_report_into_missing_directory_exits_3(self, workdir, model_a_path, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        with no_work("evaluate"):
            rc = main(
                ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
                 "--frame", str(workdir["frame_a"]), "--report", str(report)]
            )
        assert rc == 3
        assert f"cannot write output: [Errno 2] No such file or directory: '{report}'" in capsys.readouterr().err

    def test_plots_under_a_file_exit_3(self, workdir, model_a_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with no_work("evaluate"):
            rc = main(
                ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
                 "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json"),
                 "--emit-plots", str(blocker / "plots")]
            )
        assert rc == 3
        assert "cannot write output: [Errno 20] Not a directory" in capsys.readouterr().err

    def test_missing_model_exits_2(self, workdir, tmp_path):
        rc = main(
            ["evaluate", "--model", str(tmp_path / "missing.json"), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_bad_model_file_exits_2(self, workdir, model_a_path, tmp_path, capsys):
        doc = json.loads(model_a_path.read_text())
        doc["transitions"][0][0] = -1
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "transitions must be nonnegative counts" in capsys.readouterr().err

    def test_non_finite_atom_exits_2(self, workdir, model_a_path, tmp_path, capsys):
        doc = json.loads(model_a_path.read_text())
        doc["atoms"][0][0] = float("nan")
        bad = tmp_path / "nan_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["config"]["kernel"].update(lenght_x=2.0), "unknown keys ['lenght_x']"),
            (lambda doc: doc["grid"].pop("cell"), "missing keys ['cell']"),
            (lambda doc: doc["frame"].pop("curb2"), "missing keys ['curb2']"),
            (lambda doc: doc["config"].update(dt=float("nan")), "dt must be positive and finite"),
            (lambda doc: doc["config"].update(top_m=1.5), "top_m must be an integer"),
            (lambda doc: doc["patterns"][0].update(extra=1), "pattern: unknown keys ['extra']"),
            (lambda doc: doc["patterns"][0]["vx"].pop(), "has vx of shape"),
            (lambda doc: doc["config"].update(k_atoms=99), "the dictionary has 12 atoms, config.k_atoms is 99"),
            # Version 1's dictionary record.
            (lambda doc: doc.update(dictionary={"k": 12, "lambda": 0.1, "seed": 0, "atoms": doc.pop("atoms")}),
             "model file: unknown keys ['dictionary'], missing keys ['atoms']"),
            (lambda doc: doc["patterns"][0].update(kernel=doc["config"]["kernel"]), "pattern: unknown keys ['kernel']"),
            (as_version_1, "unsupported model version 1"),
            (lambda doc: doc["patterns"].append(doc["patterns"][0]), "29 pattern records for 28 nonzero transitions"),
            (lambda doc: doc["transitions"][0].__setitem__(0, 1.7), "transitions must be integer counts"),
            (lambda doc: doc["config"]["kernel"].update(signal_sd=1e308),
             "signal_sd must be positive and finite, and so must its square"),
            (lambda doc: doc["config"]["kernel"].update(noise_sd=1e308),
             "noise_sd must be positive and finite, and so must its square"),
            (lambda doc: doc["config"].update(t_obs=1e308), "t_obs / dt must be finite"),
            (lambda doc: doc["config"].update(t_pred=1e308), "t_pred / dt must be finite"),
            (lambda doc: doc["grid"].update(cell=1e-320), "cell 1e-320 gives the grid 2**63 or more features"),
            (lambda doc: doc["grid"].update(cell=1e-300), "cell 1e-300 gives the grid 2**63 or more features"),
            # Finite, but the norm's sum of squares overflows.
            (lambda doc: doc["atoms"][0].__setitem__(0, 1e308), "an atom whose norm overflows"),
            (lambda doc: doc["frame"]["curb1"].__setitem__(0, 1e308), "curb direction has near-zero or non-finite length"),
            # Finite, but the scoring's kernel squares and posterior means would overflow.
            (lambda doc: doc["patterns"][0]["inputs"][0].__setitem__(0, 1e308), "GP inputs must lie within"),
            (lambda doc: doc["patterns"][0]["vx"].__setitem__(0, 1e308), "GP weights too large"),
            # round(0.25 / 0.5) is 0: Python rounds half to even.
            (lambda doc: doc["config"].update(t_pred=0.25),
             "t_pred must be at least one step of dt, got 0.25 / 0.5"),
            (as_version_2, "unsupported model version 2"),
            (lambda doc: doc["config"].update(grid=doc["grid"]), "pipeline config: unknown keys ['grid']"),
            (lambda doc: doc["grid"].update(cell=0.5), "the grid has cell 0.5, config.grid_cell is 1.0"),
            (lambda doc: doc["config"].update(grid_cell=3.0), "the grid has cell 1.0, config.grid_cell is 3.0"),
            # Loading rejects it, not the first prediction.
            (lambda doc: doc.update(patterns=[]), "0 pattern records for 28 nonzero transitions"),
            (as_version_3, "unsupported model version 3"),
            (lambda doc: doc["columns"].__setitem__(0, float(doc["columns"][0])),
             "model file columns must be a list of integers"),
            (lambda doc: doc["columns"].__setitem__(0, True), "model file columns must be a list of integers"),
            (lambda doc: doc.update(columns=[doc["columns"]]), "model file columns must be a list of integers"),
            (lambda doc: doc["columns"].reverse(), "columns must be strictly increasing"),
            (lambda doc: doc["columns"].__setitem__(0, -1), "strictly increasing grid features, in [0, "),
            (lambda doc: doc["columns"].__setitem__(-1, GridSpec(**doc["grid"]).dim),
             "strictly increasing grid features, in [0, "),
            (lambda doc: doc["columns"].pop(), "columns for dictionary atoms of width"),
            (as_version_4, "unsupported model version 4"),
            (lambda doc: doc["patterns"].pop(), "27 pattern records for 28 nonzero transitions"),
            (lambda doc: doc["transitions"][1].__setitem__(0, -1), "transitions must be nonnegative counts"),
            (lambda doc: doc.update(transitions=np.zeros((12, 12), dtype=int).tolist()),
             "28 pattern records for 0 nonzero transitions"),
            (lambda doc: doc["transitions"][0].__setitem__(slice(0, 2), [2**62, 2**62]), "more than an int64 holds"),
        ],
        ids=["kernel-key", "grid-key", "frame-key", "nan-dt", "float-top-m",
             "pattern-extra-key", "vx-vy-lengths", "dictionary-k", "dictionary-extra-key", "pattern-kernel",
             "version-1", "pattern-too-many", "float-transition",
             "signal-sd-overflow", "noise-sd-overflow", "t-obs-steps-overflow", "t-pred-steps-overflow",
             "grid-cells-overflow", "grid-features-overflow", "atom-norm-overflow", "curb-norm-overflow",
             "pattern-input-overflow", "pattern-weight-overflow", "zero-step-horizon",
             "version-2", "config-grid", "grid-cell", "config-grid-cell", "no-patterns",
             "version-3", "float-column", "bool-column", "nested-columns", "decreasing-columns",
             "negative-column", "column-past-grid", "column-count", "version-4", "pattern-too-few",
             "negative-count", "zero-transitions", "wrapping-total"],
    )
    def test_malformed_model_file_exits_2(self, workdir, model_a_path, tmp_path, capsys, edit, message):
        doc = json.loads(model_a_path.read_text())
        edit(doc)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "model file must be a JSON object, got list"),
            ({"version": 5}, "missing keys ['config', 'frame', 'grid', 'columns', 'atoms'"),
        ],
        ids=["list", "version-only"],
    )
    def test_bad_top_level_exits_2(self, workdir, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "regroup, shape",
        [(lambda rows: [v for row in rows for v in row], lambda n: f"({2 * n},)"),
         (lambda rows: [row + [0.0] for row in rows], lambda n: f"({n}, 3)")],
        ids=["flat-inputs", "three-column-inputs"],
    )
    def test_reshaped_pattern_inputs_exit_2(self, workdir, model_a_path, tmp_path, capsys, regroup, shape):
        doc = json.loads(model_a_path.read_text())
        rec = doc["patterns"][0]
        pair = tuple(np.argwhere(doc["transitions"])[0].tolist())  # the transitions name the patterns
        n = len(rec["inputs"])
        rec["inputs"] = regroup(rec["inputs"])
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        message = f"pattern {pair}: GP inputs must be (n, 2) with at least one training point"
        assert f"{message}, got shape {shape(n)}" in capsys.readouterr().err

    def test_dt_mismatch_exits_3(self, workdir, model_a_path, tmp_path, capsys):
        data = tmp_path / "quarter.jsonl"
        assert main(["generate", "--scene", str(workdir["scene_a"]), "--n", "3", "--dt", "0.25",
                     "--seed", "1007", "--tag", "test", "--out", str(data)]) == 0
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(data),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 3
        assert "dt=0.25" in capsys.readouterr().err

    def test_unscorable_observation_exits_3(self, workdir, model_a_path, tmp_path, capsys):
        # The dataset reader bounds coordinates, so a far test frame puts the
        # curbside samples out where their squares overflow.
        cfg = json.loads(workdir["frame_a"].read_text())
        cfg["origin"] = [1e300, 0.0]
        frame = tmp_path / "far_frame.json"
        frame.write_text(json.dumps(cfg))
        first = json.loads(workdir["test_a"].read_text().splitlines()[0])["id"]
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
             "--frame", str(frame), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 3
        assert f"observation {first!r} has curbside samples" in capsys.readouterr().err

    def test_emit_plots(self, workdir, model_a_path, tmp_path):
        plots = tmp_path / "plots"
        rc = main(
            ["evaluate", "--model", str(model_a_path), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json"),
             "--emit-plots", str(plots)]
        )
        assert rc == 0
        csvs = list(plots.glob("*.csv"))
        assert len(csvs) == 8
        header = csvs[0].read_text().splitlines()[0]
        assert header == "role,candidate,likelihood,t,x,y"


class TestCompare:
    def _run(self, workdir, out):
        return main(
            ["compare",
             "--train-a", str(workdir["train_a"]), "--test-a", str(workdir["test_a"]),
             "--train-b", str(workdir["train_b"]), "--test-b", str(workdir["test_b"]),
             "--frame-a", str(workdir["frame_a"]), "--frame-b", str(workdir["frame_b"]),
             "--out", str(out), "--k", "8", "--seed", "0"]
        )

    def test_grid_structure(self, workdir, tmp_path, capsys):
        out = tmp_path / "compare.json"
        assert self._run(workdir, out) == 0
        doc = json.loads(out.read_text())
        rows = doc["rows"]
        assert len(rows) == 6
        combos = [(r["algorithm"], r["train_in"], r["test_in"]) for r in rows]
        assert combos == [
            ("ASNSC", "A", "A"), ("TASNSC", "A", "A"), ("TASNSC", "B", "A"),
            ("ASNSC", "B", "B"), ("TASNSC", "B", "B"), ("TASNSC", "A", "B"),
        ]
        table = capsys.readouterr().out
        assert table.count("TASNSC") == 4

    def test_deterministic_modulo_timing(self, workdir, tmp_path):
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert self._run(workdir, out1) == 0
        assert self._run(workdir, out2) == 0
        d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
        for row in d1["rows"] + d2["rows"]:
            row["time"] = 0.0
        assert d1 == d2

    def test_out_into_missing_directory_exits_3(self, workdir, tmp_path, capsys):
        out = tmp_path / "missing" / "c.json"
        with no_work("train"):
            assert self._run(workdir, out) == 3
        assert f"cannot write output: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-5", "inf"])
    def test_threshold_outside_0_to_180_exits_2(self, workdir, tmp_path, capsys, value):
        out = tmp_path / "c.json"
        rc = main(
            ["compare",
             "--train-a", str(workdir["train_a"]), "--test-a", str(workdir["test_a"]),
             "--train-b", str(workdir["train_b"]), "--test-b", str(workdir["test_b"]),
             "--frame-a", str(workdir["frame_a"]), "--frame-b", str(workdir["frame_b"]),
             "--out", str(out), "--threshold", value]
        )
        assert rc == 2
        assert "threshold must be an angle in [0, 180] degrees" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_exits_2(self, workdir, tmp_path):
        rc = main(
            ["compare",
             "--train-a", str(tmp_path / "nope.jsonl"), "--test-a", str(workdir["test_a"]),
             "--train-b", str(workdir["train_b"]), "--test-b", str(workdir["test_b"]),
             "--frame-a", str(workdir["frame_a"]), "--frame-b", str(workdir["frame_b"]),
             "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2


class TestDatasetReader:
    @pytest.mark.parametrize("command", ["train", "evaluate", "compare"])
    def test_coordinate_past_the_bound_exits_2(self, workdir, model_a_path, tmp_path, capsys, command):
        # A truth point of 1e308 would overflow metrics.mhd's squared
        # differences; the reader names the file and line instead.
        lines = workdir["test_a"].read_text().splitlines()
        doc = json.loads(lines[1])
        doc["points"][-1][1] = 1e308  # (t, x, y): the last truth point
        lines[1] = json.dumps(doc)
        data = tmp_path / "huge.jsonl"
        data.write_text("\n".join(lines) + "\n")
        frame, out = str(workdir["frame_a"]), str(tmp_path / "out.json")
        argv = {
            "train": ["train", "--data", str(data), "--frame", frame, "--out", out],
            "evaluate": ["evaluate", "--model", str(model_a_path), "--data", str(data), "--frame", frame,
                         "--report", out],
            "compare": ["compare", "--train-a", str(workdir["train_a"]), "--test-a", str(data),
                        "--train-b", str(workdir["train_b"]), "--test-b", str(workdir["test_b"]),
                        "--frame-a", frame, "--frame-b", str(workdir["frame_b"]), "--out", out],
        }[command]
        assert main(argv) == 2
        assert f"{data}:2: {doc['id']!r} has a coordinate beyond ±3.352e+153" in capsys.readouterr().err

    def test_points_regrouped_in_twos_exit_2(self, workdir, tmp_path, capsys):
        # The first record cut to an even number of points, its numbers
        # regrouped as rows of two: as many numbers, another shape.
        lines = workdir["train_a"].read_text().splitlines()
        doc = json.loads(lines[0])
        numbers = [v for row in doc["points"][: len(doc["points"]) // 2 * 2] for v in row]
        doc["points"] = [numbers[i : i + 2] for i in range(0, len(numbers), 2)]
        lines[0] = json.dumps(doc)
        data = tmp_path / "twos.jsonl"
        data.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--data", str(data), "--frame", str(workdir["frame_a"]), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert f"{data}:1: bad trajectory record: points must be rows (t, x, y), got shape (" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["generate", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out
