"""Smoke test of the benchmark harness in ``perfbench/``, run in process at a tiny scale.

The harness reaches into the program by name: its tracer wraps module
attributes, and ``workloads.model_key`` reads each pattern's GPs. This
catches a renamed or dropped attribute before a benchmark run does. Nothing
is written under ``perfbench/``: no bytecode, no run records.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from tasnsc.predictor import load_model, save_model

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
# Measured by perfbench/run.py around the workload, not by the workload itself.
RUN_METRICS = {"peak_rss_mb", "predictor.rollout_held_pct", "trace.overhead_ms", "trace.overhead_pct"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _snapshot() -> dict:
    return {p: p.stat().st_mtime_ns for p in PERFBENCH.rglob("*")}


@pytest.fixture(scope="module")
def harness():
    before = _snapshot()
    yield _load("tracing"), _load("workloads")
    assert _snapshot() == before


def test_tracer_targets_resolve(harness):
    tracing, _ = harness
    for module, attr, _, _ in tracing.TARGETS:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_paper_grid_in_process(harness, tmp_path):
    tracing, workloads = harness
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    with tracing.Tracer() as tracer:
        result = workloads.paper_grid(0, 0.01, str(tmp_path), tracer)
    assert result.failed == 0
    assert result.problems == []
    assert result.attempted > 0
    assert {m["name"] for m in bench["end_to_end"]} - RUN_METRICS <= set(result.metrics)
    assert {m["name"] for m in bench["per_layer"]} - RUN_METRICS <= set(tracer.layer_metrics())
    assert list(tmp_path.iterdir()) == []


def test_model_key_survives_reload(harness, model_a, tmp_path):
    _, workloads = harness
    path = tmp_path / "model.json"
    save_model(model_a, path)
    assert workloads.model_key(load_model(path)) == workloads.model_key(model_a)
