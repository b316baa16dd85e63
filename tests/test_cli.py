import json

import pytest

from tasnsc.cli import main
from tasnsc.geometry import frame_to_config
from tasnsc.synthgen import scene_a, scene_b, scene_to_config


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
        assert doc["version"] == 1
        assert len(doc["patterns"]) >= 3
        assert "patterns" in capsys.readouterr().out

    def test_k1_gives_single_atom(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        rc = main(
            ["train", "--data", str(workdir["train_a"]), "--frame", str(workdir["frame_a"]),
             "--out", str(out), "--k", "1"]
        )
        assert rc == 0
        assert json.loads(out.read_text())["dictionary"]["k"] == 1

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
        assert doc["dictionary"]["k"] == 4  # flag beats config file
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
            ({"grid": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "cel": 1}}, "'cel'"),
            ({"grid": {"x_min": float("nan"), "x_max": 1, "y_min": 0, "y_max": 1, "cell": 1}}, "finite"),
            ({"grid": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "cell": 1e-320}},
             "cell 1e-320 gives the grid 2**63 or more features"),
            ({"grid": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "cell": 1e-300}},
             "cell 1e-300 gives the grid 2**63 or more features"),
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

    def test_missing_model_exits_2(self, workdir, tmp_path):
        rc = main(
            ["evaluate", "--model", str(tmp_path / "missing.json"), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2

    def test_bad_model_file_exits_2(self, workdir, model_a_path, tmp_path, capsys):
        doc = json.loads(model_a_path.read_text())
        doc["patterns"][0]["atoms"] = [len(doc["transitions"]), 0]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            ["evaluate", "--model", str(bad), "--data", str(workdir["test_a"]),
             "--frame", str(workdir["frame_a"]), "--report", str(tmp_path / "r.json")]
        )
        assert rc == 2
        assert "atom outside" in capsys.readouterr().err

    def test_non_finite_atom_exits_2(self, workdir, model_a_path, tmp_path, capsys):
        doc = json.loads(model_a_path.read_text())
        doc["dictionary"]["atoms"][0][0] = float("nan")
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
            (lambda doc: doc["patterns"][0]["kernel"].update(lenght_x=2.0), "unknown keys ['lenght_x']"),
            (lambda doc: doc["grid"].pop("cell"), "missing keys ['cell']"),
            (lambda doc: doc["frame"].pop("curb2"), "missing keys ['curb2']"),
            (lambda doc: doc["config"].update(dt=float("nan")), "dt must be positive and finite"),
            (lambda doc: doc["config"].update(top_m=1.5), "top_m must be an integer"),
            (lambda doc: doc["patterns"][0].update(atoms=[0.0, 1.0]), "pattern atoms must be a pair of integers"),
            (lambda doc: doc["patterns"][0].update(atoms=[0]), "pattern atoms must be a pair of integers"),
            (lambda doc: doc["patterns"][0].update(extra=1), "pattern: unknown keys ['extra']"),
            (lambda doc: doc["patterns"][0]["vx"].pop(), "has vx of shape"),
            (lambda doc: doc["dictionary"].update(k=99), "dictionary k is 99"),
            (lambda doc: doc["dictionary"].update({"lambda": 5.0}), "dictionary lambda is 5.0"),
            (lambda doc: doc["dictionary"].update(extra=1), "dictionary: unknown keys ['extra']"),
            (lambda doc: doc["patterns"].append(doc["patterns"][0]), "appears more than once"),
            (lambda doc: doc["transitions"][0].__setitem__(0, 1.7), "transitions must be integer counts"),
            (lambda doc: [p.update(prior_weight=1.0) for p in doc["patterns"]], "has prior weight 1.0"),
            (lambda doc: doc["patterns"][0]["kernel"].update(signal_sd=1e308),
             "signal_sd must be positive and finite, and so must its square"),
            (lambda doc: doc["patterns"][0]["kernel"].update(noise_sd=1e308),
             "noise_sd must be positive and finite, and so must its square"),
            (lambda doc: doc["config"].update(t_obs=1e308), "t_obs / dt must be finite"),
            (lambda doc: doc["config"].update(t_pred=1e308), "t_pred / dt must be finite"),
            (lambda doc: doc["grid"].update(cell=1e-320), "cell 1e-320 gives the grid 2**63 or more features"),
            (lambda doc: doc["grid"].update(cell=1e-300), "cell 1e-300 gives the grid 2**63 or more features"),
            # Finite, but the norm's sum of squares overflows.
            (lambda doc: doc["dictionary"]["atoms"][0].__setitem__(0, 1e308), "an atom whose norm overflows"),
            (lambda doc: doc["frame"]["curb1"].__setitem__(0, 1e308), "curb direction has near-zero or non-finite length"),
            # round(0.25 / 0.5) is 0: Python rounds half to even.
            (lambda doc: doc["config"].update(t_pred=0.25),
             "t_pred must be at least one step of dt, got 0.25 / 0.5"),
        ],
        ids=["kernel-key", "grid-key", "frame-key", "nan-dt", "float-top-m", "float-atoms", "one-atom",
             "pattern-extra-key", "vx-vy-lengths", "dictionary-k", "dictionary-lambda",
             "dictionary-extra-key", "duplicate-pattern", "float-transition", "prior-weight",
             "signal-sd-overflow", "noise-sd-overflow", "t-obs-steps-overflow", "t-pred-steps-overflow",
             "grid-cells-overflow", "grid-features-overflow", "atom-norm-overflow", "curb-norm-overflow",
             "zero-step-horizon"],
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
            ({"version": 1}, "missing keys ['config', 'frame', 'grid', 'dictionary'"),
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

    def test_missing_dataset_exits_2(self, workdir, tmp_path):
        rc = main(
            ["compare",
             "--train-a", str(tmp_path / "nope.jsonl"), "--test-a", str(workdir["test_a"]),
             "--train-b", str(workdir["train_b"]), "--test-b", str(workdir["test_b"]),
             "--frame-a", str(workdir["frame_a"]), "--frame-b", str(workdir["frame_b"]),
             "--out", str(tmp_path / "c.json")]
        )
        assert rc == 2


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
