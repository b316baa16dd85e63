"""Corruption properties: every file the CLI reads, with one part of it broken.

Each property takes a small valid file, replaces one JSON value (a leaf or a
whole container) with a value of the wrong kind or range, or deletes one key
or element, and runs the CLI command that reads it. The command must exit 0,
2 or 3, never raise, and print an ``error:`` line whenever it fails.

The commands run under Python's default warning filters, as they do from a
shell: a numpy overflow warning is printed there, not raised. Finite values
as large as 1e308 can still overflow on their way through the pipeline.
"""

import copy
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tasnsc.cli import main
from tasnsc.geometry import frame_to_config
from tasnsc.predictor import PipelineConfig
from tasnsc.synthgen import scene_a, scene_to_config

REPLACEMENTS = ["x", None, [], {}, True, -1, 0, float("nan"), 1e308, 2**70]
DELETE = object()
# A few examples per file kind keep these properties to a few seconds; each
# run draws new ones.
PROPERTY = settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated(draw, doc):
    """``doc`` with one value replaced or one key or element deleted."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(0, 5))):
        if not (isinstance(node, (dict, list)) and node):
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return draw(st.sampled_from(REPLACEMENTS))
    value = draw(st.sampled_from([*REPLACEMENTS, DELETE]))
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


def run(argv) -> None:
    """Run the CLI; it must exit 0, 2 or 3 and say why when it fails."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        rc = main([str(a) for a in argv])
    assert rc in (0, 2, 3)
    if rc:
        assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), err.getvalue()


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny trained model with the configs, frame and datasets it came from."""
    root = tmp_path_factory.mktemp("corruption")
    scene = scene_a()
    paths = {
        "root": root,
        "scene": write_json(root / "scene.json", scene_to_config(scene)),
        "frame": write_json(root / "frame.json", frame_to_config(scene.frame())),
        "config": write_json(root / "config.json", PipelineConfig(k_atoms=3, iters=10).to_dict()),
        "train": root / "train.jsonl",
        "test": root / "test.jsonl",
        "model": root / "model.json",
    }
    assert main(["generate", "--scene", str(paths["scene"]), "--n", "12", "--out", str(paths["train"])]) == 0
    assert main(["generate", "--scene", str(paths["scene"]), "--n", "2", "--seed", "1007", "--tag", "test",
                 "--out", str(paths["test"])]) == 0
    assert main(["train", "--config", str(paths["config"]), "--data", str(paths["train"]),
                 "--frame", str(paths["frame"]), "--out", str(paths["model"])]) == 0
    return paths


def evaluate_argv(files, model=None, data=None, frame=None):
    return ["evaluate", "--model", model or files["model"], "--data", data or files["test"],
            "--frame", frame or files["frame"], "--report", files["root"] / "report.json"]


def train_argv(files, config=None, data=None):
    return ["train", "--config", config or files["config"], "--data", data or files["train"],
            "--frame", files["frame"], "--out", files["root"] / "retrained.json"]


class TestCorruptedInputs:
    @settings(PROPERTY, max_examples=40)
    @given(data=st.data())
    def test_model_file(self, files, data):
        doc = data.draw(mutated(json.loads(files["model"].read_text())))
        run(evaluate_argv(files, model=write_json(files["root"] / "bad_model.json", doc)))

    @PROPERTY
    @given(data=st.data())
    def test_pipeline_config(self, files, data):
        doc = data.draw(mutated(json.loads(files["config"].read_text())))
        run(train_argv(files, config=write_json(files["root"] / "bad_config.json", doc)))

    @PROPERTY
    @given(data=st.data())
    def test_frame_config(self, files, data):
        doc = data.draw(mutated(json.loads(files["frame"].read_text())))
        run(evaluate_argv(files, frame=write_json(files["root"] / "bad_frame.json", doc)))

    @PROPERTY
    @given(data=st.data())
    def test_scene_config(self, files, data):
        doc = data.draw(mutated(json.loads(files["scene"].read_text())))
        scene = write_json(files["root"] / "bad_scene.json", doc)
        run(["generate", "--scene", scene, "--n", "3", "--out", files["root"] / "generated.jsonl"])

    @PROPERTY
    @given(data=st.data(), command=st.sampled_from(["train", "evaluate"]))
    def test_dataset_line(self, files, data, command):
        lines = files[command if command == "train" else "test"].read_text().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = json.dumps(data.draw(mutated(json.loads(lines[k]))))
        bad = files["root"] / "bad_data.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        run(train_argv(files, data=bad) if command == "train" else evaluate_argv(files, data=bad))
