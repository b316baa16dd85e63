"""A fresh run of the pipeline equals the checked-in golden record, ``tests/golden/outputs.json``.

Integers exactly, floats within a relative change of 1e-12 (see
``tests/golden/record.py``, which also rewrites the record). The test only
reads the record.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location("golden_record", GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_outputs_match_the_golden_record(record):
    recorded = record.load()
    changes, problems = record.compare({k: recorded[k] for k in ("runs", "quickstart")}, record.compute())
    assert not problems, record.report(recorded, changes, problems)


def test_a_change_past_the_tolerance_is_named(record):
    recorded = {"runs": {"r": {"transitions": [[0, 1]], "likelihoods": [[0.25, 0.75]]}}}
    fresh = {"runs": {"r": {"transitions": [[0, 2]], "likelihoods": [[0.25, 0.75 * (1 + 1e-11)]]}}}
    changes, problems = record.compare(recorded, fresh)
    assert changes == {"likelihoods": pytest.approx(1e-11, rel=1e-3)}
    assert problems == [
        "runs/r/transitions: [[0, 2]] differs from the recorded [[0, 1]]",
        "runs/r/likelihoods: relative change 1e-11 is past 1e-12",
    ]
    fresh["runs"]["r"] = {"transitions": [[0, 1]], "likelihoods": [[0.25, 0.75 * (1 + 1e-13)]]}
    changes, problems = record.compare(recorded, fresh)
    assert problems == [] and 0 < changes["likelihoods"] <= record.RTOL
