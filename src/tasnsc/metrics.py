"""Evaluation metrics: Modified Hausdorff Distance, angular correctness, Eq.-style
likelihood-weighted classification accuracy, and the full benchmark report.

A prediction counts as correct when the direction from the last observed
point to its endpoint deviates from the ground-truth direction by at most a
threshold (``THRESHOLD_DEG`` by default). Accuracy pools every candidate
across the test set, weighting each by its prediction likelihood:

    accuracy % = 100 * sum(l_i for correct i) / sum(l_k for all k)
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# ``predict`` is not called here; the benchmark's tracer wraps ``metrics.predict``.
from .predictor import PredictionSet, TasnscModel, predict, predict_many  # noqa: F401
from .trajectory import Dataset, Trajectory, split_horizon

THRESHOLD_DEG = 40.0  # the paper's correctness cone, degrees

__all__ = [
    "THRESHOLD_DEG",
    "check_threshold",
    "EvalReport",
    "mhd",
    "angular_deviation",
    "classification_accuracy",
    "evaluate",
    "format_table",
    "write_candidate_csv",
]


def _points(seq) -> np.ndarray:
    points = seq.xy if isinstance(seq, Trajectory) else np.asarray(seq, dtype=float)
    if points.shape[1:] != (2,):
        raise ValueError(f"a point sequence must be (n, 2), got shape {points.shape}")
    return points


def mhd(a, b) -> float:
    """Modified Hausdorff Distance between two point sequences, (n, 2) arrays or trajectories (meters).

    The larger of the two directed mean nearest-neighbor distances.
    """
    pa, pb = _points(a), _points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("MHD needs two nonempty point sequences")
    diff = pa[:, None, :] - pb[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    return float(max(d.min(axis=1).mean(), d.min(axis=0).mean()))


def angular_deviation(predicted, truth, anchor) -> float:
    """Unsigned angle in degrees between the two endpoint displacements.

    Displacements run from ``anchor`` (the last observed point) to the
    final point of each sequence. Raises if either displacement is shorter
    than 1e-9 m.
    """
    anchor = np.asarray(anchor, dtype=float)
    dp = _points(predicted)[-1] - anchor
    dt_ = _points(truth)[-1] - anchor
    np_, nt = np.linalg.norm(dp), np.linalg.norm(dt_)
    if np_ < 1e-9 or nt < 1e-9:
        raise ValueError("endpoint displacement is zero, direction undefined")
    cosang = np.clip(dp @ dt_ / (np_ * nt), -1.0, 1.0)
    return float(np.degrees(np.arccos(cosang)))


def check_threshold(threshold: float) -> float:
    """``threshold``, if it is a cone half-angle in [0, 180] degrees; else ``ValueError``."""
    if not 0.0 <= threshold <= 180.0:  # nan fails too
        raise ValueError(f"threshold must be an angle in [0, 180] degrees, got {threshold!r}")
    return threshold


def _judge(pset: PredictionSet, truth, anchor, threshold: float) -> list:
    """``(likelihood, correct)`` for every candidate of a set, in candidate order."""
    judged = []
    for cand in pset.candidates:
        # Degenerate displacements (a rollout that went nowhere, or a
        # stationary ground truth) never fall inside the cone.
        try:
            correct = angular_deviation(cand.trajectory, truth, anchor) <= threshold
        except ValueError:
            correct = False
        judged.append((cand.likelihood, correct))
    return judged


def _accuracy(judged_sets) -> float:
    """Pool judged sets, set by set and candidate by candidate, into a percentage."""
    num = 0.0
    den = 0.0
    for judged in judged_sets:
        for likelihood, correct in judged:
            den += likelihood
            if correct:
                num += likelihood
    if den == 0.0:
        raise ValueError("no predictions to score")
    return 100.0 * num / den


def classification_accuracy(results, threshold: float = THRESHOLD_DEG) -> float:
    """Likelihood-weighted percentage of correct predictions.

    ``results`` is a sequence of ``(PredictionSet, truth, anchor)`` triples;
    every candidate of every set is pooled with its likelihood as weight.
    """
    check_threshold(threshold)
    return _accuracy(_judge(pset, truth, anchor, threshold) for pset, truth, anchor in results)


@dataclass
class EvalReport:
    """Benchmark summary plus one row per test trajectory."""

    classification_accuracy: float
    mean_mhd: float
    mean_predict_time: float
    threshold_deg: float
    n_trajectories: int
    rows: list = field(default_factory=list)
    mean_weighted_mhd: float | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.mean_weighted_mhd is None:
            del d["mean_weighted_mhd"]
        return d

    def table_row(self, mode: str, train_in: str, test_in: str) -> dict:
        """One :func:`format_table` row under the paper's algorithm names."""
        return {
            "algorithm": "ASNSC" if mode == "baseline" else "TASNSC",
            "accuracy": self.classification_accuracy,
            "mhd": self.mean_mhd,
            "time": self.mean_predict_time,
            "train_in": train_in,
            "test_in": test_in,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def evaluate(
    model: TasnscModel,
    test: Dataset,
    test_frame,
    threshold: float = THRESHOLD_DEG,
    weighted_mhd: bool = False,
    collect_predictions: list | None = None,
) -> EvalReport:
    """Run the full benchmark protocol over a test dataset.

    Each trajectory is split into the model's ``config.t_obs`` observation
    and ``config.t_pred`` ground truth; the observations are predicted in
    one :func:`predict_many` call and each is scored. A row's
    ``predict_time`` is that call's time divided by the number of
    trajectories. When a list is passed as
    ``collect_predictions`` it receives one
    ``(observed, truth, PredictionSet)`` triple per trajectory, for plot
    export. A ``threshold`` outside [0, 180] degrees raises ``ValueError``.
    """
    check_threshold(threshold)
    if len(test) == 0:
        raise ValueError("empty test set")

    splits = [split_horizon(traj, model.config.t_obs, model.config.t_pred) for traj in test]
    tic = time.perf_counter()
    psets = predict_many(model, test_frame, [observed for observed, _ in splits])
    elapsed = (time.perf_counter() - tic) / len(test)

    judged_sets = []
    rows = []
    mhds = []
    weighted = []
    for traj, (observed, truth), pset in zip(test, splits, psets):
        judged = _judge(pset, truth, observed.xy[-1], threshold)
        judged_sets.append(judged)
        if collect_predictions is not None:
            collect_predictions.append((observed, truth, pset))

        top = pset.top()
        top_mhd = mhd(top.trajectory, truth)
        mhds.append(top_mhd)
        if weighted_mhd:
            weighted.append(sum(c.likelihood * mhd(c.trajectory, truth) for c in pset.candidates))
        rows.append(
            {
                "id": traj.id,
                "intent": traj.intent,
                "top_pattern": list(top.atoms),
                "top_likelihood": top.likelihood,
                "correct_weight": sum(lik for lik, correct in judged if correct),
                "top_mhd": top_mhd,
                "predict_time": elapsed,
            }
        )

    return EvalReport(
        classification_accuracy=_accuracy(judged_sets),
        mean_mhd=float(np.mean(mhds)),
        mean_predict_time=elapsed,
        threshold_deg=threshold,
        n_trajectories=len(test),
        rows=rows,
        mean_weighted_mhd=float(np.mean(weighted)) if weighted_mhd else None,
    )


_COLUMNS = ("Algorithm", "Classification Accuracy (%)", "MHD (m)", "Time (sec)", "Train In", "Test In")


def format_table(rows) -> str:
    """Aligned text table with the benchmark comparison columns.

    ``rows`` is a list of dicts with keys algorithm, accuracy, mhd, time,
    train_in, test_in.
    """
    body = [
        (
            r["algorithm"],
            f"{r['accuracy']:.2f}",
            f"{r['mhd']:.3f}",
            f"{r['time']:.4f}",
            r["train_in"],
            r["test_in"],
        )
        for r in rows
    ]
    widths = [max(len(c), *(len(row[i]) for row in body)) for i, c in enumerate(_COLUMNS)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*_COLUMNS), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*row) for row in body]
    return "\n".join(lines)


def write_candidate_csv(path, observed: Trajectory, truth: Trajectory, pset: PredictionSet) -> None:
    """Per-trajectory plot data: observed, ground truth, and each candidate."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "candidate", "likelihood", "t", "x", "y"])
        for t, x, y in observed.points:
            writer.writerow(["observed", "", "", f"{t:.3f}", repr(x), repr(y)])
        for t, x, y in truth.points:
            writer.writerow(["truth", "", "", f"{t:.3f}", repr(x), repr(y)])
        for k, cand in enumerate(pset.candidates):
            for t, x, y in cand.trajectory.points:
                writer.writerow(["candidate", k, f"{cand.likelihood:.6f}", f"{t:.3f}", repr(x), repr(y)])
