"""The shipped configs under ``configs/`` match the code's defaults and canonical scenes."""

import json
from pathlib import Path

import pytest

from tasnsc.geometry import frame_to_config
from tasnsc.predictor import PipelineConfig
from tasnsc.synthgen import load_scene, scene_a, scene_b

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_pipeline_defaults():
    doc = json.loads((CONFIGS / "pipeline_defaults.json").read_text())
    assert doc == PipelineConfig().to_dict()
    assert PipelineConfig.from_dict(doc) == PipelineConfig()


@pytest.mark.parametrize("name, scene", [("a", scene_a()), ("b", scene_b())])
def test_scene(name, scene):
    assert load_scene(CONFIGS / f"scene_{name}.json") == scene


@pytest.mark.parametrize("name, scene", [("a", scene_a()), ("b", scene_b())])
def test_frame(name, scene):
    assert json.loads((CONFIGS / f"frame_{name}.json").read_text()) == frame_to_config(scene.frame())
