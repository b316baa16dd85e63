"""Golden outputs: the pipeline's results on the canonical scenes, kept in ``outputs.json``.

The record covers seeds 0 and 1, both modes (``tasnsc`` and ``baseline``)
and both training scenes, each model predicting on both test scenes. Seed
n trains with ``PipelineConfig(seed=n)`` on the canonical scenes A and B
(150 trajectories each) and tests on 30 trajectories of each scene at
scene seeds 1007 + n and 1011 + n, so seed 0 is the README Quickstart's
protocol. The record also holds the six rows of the Quickstart's
``tasnsc compare``, without their ``time`` fields.

Integers must match exactly: each model's ``columns`` and ``transitions``
and each observation's top-M pattern pairs. Floats must match within a
relative change of 1e-12, taken per recorded array as
``max|new - old| / max|old|``: the final objective, the atom norms, the
flow-target norms, the candidate likelihoods, the candidate end points and
the Quickstart rows' accuracy and MHD. Atoms are kept as norms because
single entries move by up to 1e-10 between BLAS kernels, and their norms
by 1e-16.

From the repository root (with ``tasnsc`` importable, e.g. ``PYTHONPATH=src``)::

    python tests/golden/record.py                            # compare a fresh run with the record
    python tests/golden/record.py --write                    # rewrite the record
    python tests/golden/record.py --quickstart compare.json  # a `tasnsc compare` file against the record

The comparison prints the largest relative change of each quantity and
exits 1 if any is past the tolerance. Rewrite the record only for a change
meant to alter outputs, and name the largest change of each quantity with
it; never to make a run pass.
"""

import argparse
import json
import os
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from tasnsc import metrics, predictor, synthgen
from tasnsc.trajectory import split_horizon

RECORD = Path(__file__).resolve().parent / "outputs.json"
RTOL = 1e-12
SEEDS = (0, 1)
MODES = ("tasnsc", "baseline")
N_TRAIN = 150
N_TEST = 30
TEST_SEEDS = {"A": 1007, "B": 1011}
INTEGERS = {"columns", "transitions", "pairs"}
# The rows of `tasnsc compare`, in its order: (mode, train scene, test scene).
QUICKSTART_GRID = [
    ("baseline", "A", "A"),
    ("tasnsc", "A", "A"),
    ("tasnsc", "B", "A"),
    ("baseline", "B", "B"),
    ("tasnsc", "B", "B"),
    ("tasnsc", "A", "B"),
]


def environment() -> dict:
    """The versions and BLAS set-up that the outputs' last bits depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}".strip(": ")
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "OMP_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas, **env}


def _model_record(model) -> dict:
    return {
        "columns": model.columns.tolist(),
        "transitions": model.transitions.tolist(),
        "final_objective": model.final_objective,
        "atom_norms": np.linalg.norm(model.dictionary.atoms, axis=1).tolist(),
        "flow_target_norms": [float(np.linalg.norm(f.targets)) for f in model.flows],
    }


def _predictions_record(psets) -> dict:
    return {
        "pairs": [[list(c.atoms) for c in p.candidates] for p in psets],
        "likelihoods": [[c.likelihood for c in p.candidates] for p in psets],
        "end_points": [[c.trajectory.xy[-1].tolist() for c in p.candidates] for p in psets],
    }


def compute() -> dict:
    """A fresh run of every output the record holds, in the record's layout."""
    scenes = {"A": synthgen.scene_a(), "B": synthgen.scene_b()}
    frames = {name: scene.frame() for name, scene in scenes.items()}
    train_sets = {name: synthgen.generate(scene, N_TRAIN) for name, scene in scenes.items()}
    runs, quickstart = {}, []
    for seed in SEEDS:
        tests = {
            name: synthgen.generate(synthgen.with_seed(scene, TEST_SEEDS[name] + seed), N_TEST, tag="test")
            for name, scene in scenes.items()
        }
        models = {}
        for mode in MODES:
            for tr in scenes:
                model = predictor.train(train_sets[tr], frames[tr], predictor.PipelineConfig(mode=mode, seed=seed))
                models[mode, tr] = model
                run = _model_record(model)
                for te, test in tests.items():
                    observed = [split_horizon(t, model.config.t_obs, model.config.t_pred)[0] for t in test]
                    run[f"predictions_{te}"] = _predictions_record(predictor.predict_many(model, frames[te], observed))
                runs[f"seed{seed}/{mode}/{tr}"] = run
        if seed == 0:
            for mode, tr, te in QUICKSTART_GRID:
                report = metrics.evaluate(models[mode, tr], tests[te], frames[te])
                quickstart.append(_untimed(report.table_row(mode, tr, te)))
    return {"runs": runs, "quickstart": quickstart}


def _untimed(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "time"}


def compare(old, new, path: tuple = ()) -> tuple[dict, list]:
    """``(changes, problems)``: the largest relative change of each float quantity, and every mismatch.

    A quantity is named by its key, prefixed by ``quickstart.`` for the
    compare rows. A mismatch is a difference in layout or in an integer or
    string, or a float change past ``RTOL``.
    """
    changes: dict = {}
    problems: list = []
    where = "/".join(map(str, path)) or "record"
    if isinstance(old, dict) or (isinstance(old, list) and old and isinstance(old[0], dict)):
        keys = list(old) if isinstance(old, dict) else list(range(len(old)))
        if type(new) is not type(old) or len(new) != len(old) or (isinstance(old, dict) and set(new) != set(old)):
            return changes, [f"{where}: layout differs"]
        for key in keys:
            sub_changes, sub_problems = compare(old[key], new[key], path + (key,))
            for name, change in sub_changes.items():
                changes[name] = max(changes.get(name, 0.0), change)
            problems += sub_problems
        return changes, problems
    name = path[-1] if path[0] != "quickstart" else f"quickstart.{path[-1]}"
    if name in INTEGERS or isinstance(old, str):
        return changes, ([] if old == new else [f"{where}: {new!r} differs from the recorded {old!r}"])
    a, b = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if a.shape != b.shape:
        return changes, [f"{where}: shape {b.shape} differs from the recorded {a.shape}"]
    scale = float(np.abs(a).max(initial=0.0))
    change = float(np.abs(b - a).max(initial=0.0)) / (scale if scale > 0.0 else 1.0)
    if not change <= RTOL:  # NaN fails too
        problems.append(f"{where}: relative change {change:.3g} is past {RTOL:g}")
    changes[name] = change
    return changes, problems


def report(recorded: dict, changes: dict, problems: list) -> str:
    """The largest change of each quantity, the mismatches, and both environments when there is one."""
    lines = [f"largest relative change of {name}: {change:.3g}" for name, change in sorted(changes.items())]
    if problems:
        lines += [f"{len(problems)} mismatches with {RECORD.name}, the first ones:"] + problems[:10]
        lines.append(f"recorded with {recorded.get('environment')}")
        lines.append(f"compared with {environment()}")
    return "\n".join(lines)


def load() -> dict:
    with open(RECORD) as fh:
        return json.load(fh)


def _dumps(doc, indent: int = 0) -> str:
    """JSON with one line per leaf: objects and lists of objects are laid out, number lists are not."""
    pad = " " * (indent + 1)
    if isinstance(doc, dict):
        items = (f"{pad}{json.dumps(k)}: {_dumps(v, indent + 1)}" for k, v in doc.items())
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(doc, list) and doc and isinstance(doc[0], dict):
        return "[\n" + ",\n".join(pad + _dumps(v, indent + 1) for v in doc) + "\n" + " " * indent + "]"
    return json.dumps(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the record from a fresh run")
    parser.add_argument("--quickstart", metavar="COMPARE_JSON", help="check a `tasnsc compare` file's rows")
    args = parser.parse_args(argv)
    if args.write:
        RECORD.write_text(_dumps({"environment": environment(), **compute()}) + "\n")
        print(f"wrote {RECORD}")
        return 0
    recorded = load()
    if args.quickstart:
        with open(args.quickstart) as fh:
            rows = [_untimed(row) for row in json.load(fh)["rows"]]
        changes, problems = compare(recorded["quickstart"], rows, ("quickstart",))
    else:
        changes, problems = compare({k: recorded[k] for k in ("runs", "quickstart")}, compute())
    print(report(recorded, changes, problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
