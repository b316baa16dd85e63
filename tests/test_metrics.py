import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from tasnsc import metrics
from tasnsc.metrics import (
    THRESHOLD_DEG,
    angular_deviation,
    classification_accuracy,
    evaluate,
    format_table,
    mhd,
    write_candidate_csv,
)
from tasnsc.predictor import PredictedCandidate, PredictionSet
from tasnsc.trajectory import Trajectory


def brute_force_mhd(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)

    def directed(p, q):
        total = 0.0
        for x in p:
            best = min(float(np.hypot(*(x - y))) for y in q)
            total += best
        return total / len(p)

    return max(directed(a, b), directed(b, a))


def candidate(endpoint, likelihood, anchor=(0.0, 0.0), n=4):
    xy = np.linspace(anchor, endpoint, n)
    traj = Trajectory(id="c", dt=0.5, times=0.5 * np.arange(n), xy=xy)
    return PredictedCandidate(trajectory=traj, likelihood=likelihood, atoms=(0, 0), step_variance=np.zeros(n))


def pset(*endpoint_weight_pairs):
    return PredictionSet(candidates=[candidate(e, w) for e, w in endpoint_weight_pairs])


def truth_to(endpoint, n=4):
    return Trajectory(id="g", dt=0.5, times=0.5 * np.arange(n), xy=np.linspace((0.0, 0.0), endpoint, n))


class TestMHD:
    def test_identical_is_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        assert mhd(a, a) == 0.0

    def test_parallel_rows(self):
        assert mhd([[0, 0], [1, 0]], [[0, 1], [1, 1]]) == pytest.approx(1.0)

    def test_single_points(self):
        assert mhd([[0, 0]], [[3, 4]]) == pytest.approx(5.0)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-5, 5, (rng.integers(1, 10), 2))
            b = rng.uniform(-5, 5, (rng.integers(1, 10), 2))
            assert mhd(a, b) == pytest.approx(mhd(b, a))
            assert mhd(a, b) >= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(-10, 10, (rng.integers(1, 51), 2))
            b = rng.uniform(-10, 10, (rng.integers(1, 51), 2))
            assert abs(mhd(a, b) - brute_force_mhd(a, b)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mhd(np.empty((0, 2)), [[0, 0]])

    @pytest.mark.parametrize("shape", [(4,), (2, 1, 2), (2, 3)])
    def test_other_shapes_rejected(self, shape):
        # A flat [x0, y0, x1, y1] is not read as two points.
        with pytest.raises(ValueError, match=re.escape(f"a point sequence must be (n, 2), got shape {shape}")):
            mhd(np.zeros(shape), [[0.0, 0.0], [1.0, 0.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        a=arrays(float, st.tuples(st.integers(1, 12), st.just(2)), elements=st.floats(-50, 50)),
        b=arrays(float, st.tuples(st.integers(1, 12), st.just(2)), elements=st.floats(-50, 50)),
    )
    def test_bitwise_equal_to_cdist(self, a, b):
        d = cdist(a, b)
        assert mhd(a, b) == float(max(d.min(axis=1).mean(), d.min(axis=0).mean()))


class TestAngularDeviation:
    def test_equal_endpoints(self):
        t = truth_to((2.0, 1.0))
        assert angular_deviation(t, t, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-5)

    def test_orthogonal(self):
        assert angular_deviation(truth_to((1, 0)), truth_to((0, 1)), (0, 0)) == pytest.approx(90.0)

    def test_45_degrees(self):
        assert angular_deviation(truth_to((1, 0)), truth_to((1, 1)), (0, 0)) == pytest.approx(45.0)

    def test_zero_displacement_rejected(self):
        with pytest.raises(ValueError):
            angular_deviation(truth_to((0, 0)), truth_to((1, 0)), (0, 0))


class TestClassificationAccuracy:
    def test_all_correct(self):
        results = [(pset(((1.0, 0.0), 0.6), ((1.0, 0.1), 0.4)), truth_to((2.0, 0.0)), (0.0, 0.0))]
        assert classification_accuracy(results) == pytest.approx(100.0)

    def test_likelihood_weighting_70_30(self):
        results = [(pset(((1.0, 0.1), 0.7), ((0.0, 1.0), 0.3)), truth_to((1.0, 0.0)), (0.0, 0.0))]
        assert classification_accuracy(results, threshold=40.0) == pytest.approx(70.0)

    def test_threshold_180_accepts_everything(self):
        results = [(pset(((-1.0, 0.0), 0.5), ((0.0, -1.0), 0.5)), truth_to((1.0, 0.0)), (0.0, 0.0))]
        assert classification_accuracy(results, threshold=180.0) == pytest.approx(100.0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        results = []
        for _ in range(10):
            ends = rng.uniform(-1, 1, (3, 2)) * 3.0
            w = rng.dirichlet(np.ones(3))
            results.append((pset(*zip(map(tuple, ends), w)), truth_to((2.0, 0.5)), (0.0, 0.0)))
        accs = [classification_accuracy(results, threshold=th) for th in (0.0, 10.0, 40.0, 90.0, 180.0)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))

    def test_uniform_weights_reduce_to_fraction(self):
        results = [
            (
                pset(((1.0, 0.0), 0.25), ((0.0, 1.0), 0.25), ((-1.0, 0.0), 0.25), ((1.0, 0.2), 0.25)),
                truth_to((1.0, 0.0)),
                (0.0, 0.0),
            )
        ]
        assert classification_accuracy(results, threshold=40.0) == pytest.approx(50.0)

    def test_degenerate_candidate_counts_incorrect(self):
        results = [(pset(((0.0, 0.0), 0.5), ((1.0, 0.0), 0.5)), truth_to((1.0, 0.0)), (0.0, 0.0))]
        assert classification_accuracy(results) == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classification_accuracy([])

    @pytest.mark.parametrize("threshold", [float("nan"), -5.0, -1e-300, 180.000001, float("inf"), -float("inf")])
    def test_threshold_outside_0_to_180_rejected(self, threshold):
        results = [(pset(((1.0, 0.0), 1.0)), truth_to((1.0, 0.0)), (0.0, 0.0))]
        with pytest.raises(ValueError, match=re.escape("threshold must be an angle in [0, 180] degrees")):
            classification_accuracy(results, threshold=threshold)


class TestEvaluate:
    def test_report_fields(self, model_a, small_a):
        report = evaluate(model_a, small_a["test"], small_a["frame"])
        assert 0.0 <= report.classification_accuracy <= 100.0
        assert report.mean_mhd >= 0.0
        assert report.mean_predict_time > 0.0
        assert report.n_trajectories == len(small_a["test"])
        assert len(report.rows) == len(small_a["test"])
        for row in report.rows:
            assert set(row) >= {"id", "intent", "top_pattern", "correct_weight", "top_mhd"}

    def test_training_set_not_worse(self, model_a, small_a):
        train_subset = type(small_a["train"])(
            trajectories=small_a["train"].trajectories[:12]
        )
        on_train = evaluate(model_a, train_subset, small_a["frame"])
        on_test = evaluate(model_a, small_a["test"], small_a["frame"])
        assert on_train.classification_accuracy >= on_test.classification_accuracy - 1e-9

    def test_zero_threshold_floor(self, model_a, small_a):
        tight = evaluate(model_a, small_a["test"], small_a["frame"], threshold=0.0)
        wide = evaluate(model_a, small_a["test"], small_a["frame"], threshold=40.0)
        assert tight.classification_accuracy <= wide.classification_accuracy + 1e-12

    @pytest.mark.parametrize("threshold", [float("nan"), -5.0, float("inf")])
    def test_threshold_outside_0_to_180_rejected(self, model_a, small_a, monkeypatch, threshold):
        # Rejected before any prediction is made.
        monkeypatch.setattr(metrics, "predict_many", None)
        with pytest.raises(ValueError, match=re.escape(f"got {threshold!r}")):
            evaluate(model_a, small_a["test"], small_a["frame"], threshold=threshold)

    def test_weighted_mhd_flag(self, model_a, small_a):
        report = evaluate(model_a, small_a["test"], small_a["frame"], weighted_mhd=True)
        assert report.mean_weighted_mhd is not None
        assert report.mean_weighted_mhd >= 0.0

    def test_empty_test_set(self, model_a, small_a):
        from tasnsc.trajectory import Dataset

        with pytest.raises(ValueError):
            evaluate(model_a, Dataset(trajectories=[]), small_a["frame"])

    def test_report_json(self, model_a, small_a, tmp_path):
        import json

        report = evaluate(model_a, small_a["test"], small_a["frame"])
        path = tmp_path / "report.json"
        report.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["classification_accuracy"] == pytest.approx(report.classification_accuracy)
        assert len(doc["rows"]) == report.n_trajectories

    def test_judges_each_candidate_once(self, model_a, small_a, monkeypatch):
        calls = []
        real = metrics.angular_deviation

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(metrics, "angular_deviation", counted)
        collected = []
        evaluate(model_a, small_a["test"], small_a["frame"], collect_predictions=collected)
        assert len(calls) == sum(len(pset.candidates) for _, _, pset in collected)

    def test_predicts_the_test_set_in_one_batch(self, model_a, small_a, monkeypatch):
        # One predict_many call per test set; each row's time is its share.
        batches = []
        real = metrics.predict_many

        def counted(model, frame, observations):
            tic = time.perf_counter()
            psets = real(model, frame, observations)
            batches.append((len(observations), time.perf_counter() - tic))
            return psets

        monkeypatch.setattr(metrics, "predict_many", counted)
        tic = time.perf_counter()
        report = evaluate(model_a, small_a["test"], small_a["frame"])
        wall = time.perf_counter() - tic
        n = len(small_a["test"])
        assert [size for size, _ in batches] == [n]
        assert {row["predict_time"] for row in report.rows} == {report.mean_predict_time}
        assert batches[0][1] <= n * report.mean_predict_time <= wall

    def test_accuracy_matches_classification_accuracy(self, model_a, small_a):
        for threshold in (0.0, THRESHOLD_DEG, 180.0):
            collected = []
            report = evaluate(
                model_a, small_a["test"], small_a["frame"], threshold=threshold, collect_predictions=collected
            )
            triples = [(pset, truth, observed.xy[-1]) for observed, truth, pset in collected]
            assert report.classification_accuracy == classification_accuracy(triples, threshold)

    def test_correct_weight_is_likelihood_of_correct_candidates(self, model_a, small_a):
        collected = []
        report = evaluate(model_a, small_a["test"], small_a["frame"], collect_predictions=collected)
        for row, (observed, truth, pset) in zip(report.rows, collected):
            expected = 0.0
            for cand in pset.candidates:
                try:
                    deviation = angular_deviation(cand.trajectory, truth, observed.xy[-1])
                except ValueError:
                    continue
                if deviation <= THRESHOLD_DEG:
                    expected += cand.likelihood
            assert row["correct_weight"] == expected

    def test_horizon_comes_from_model(self, model_a, small_a):
        collected = []
        evaluate(model_a, small_a["test"], small_a["frame"], collect_predictions=collected)
        cfg = model_a.config
        for observed, truth, pset in collected:
            assert len(observed) == round(cfg.t_obs / cfg.dt)
            assert len(truth) == round(cfg.t_pred / cfg.dt)
            assert all(len(c.trajectory) == len(truth) for c in pset.candidates)

    def test_table_row_uses_paper_names(self, model_a, small_a):
        report = evaluate(model_a, small_a["test"], small_a["frame"])
        row = report.table_row("tasnsc", "A", "B")
        assert row == {
            "algorithm": "TASNSC",
            "accuracy": report.classification_accuracy,
            "mhd": report.mean_mhd,
            "time": report.mean_predict_time,
            "train_in": "A",
            "test_in": "B",
        }
        assert report.table_row("baseline", "A", "A")["algorithm"] == "ASNSC"


class TestOutputs:
    def test_format_table_alignment(self):
        rows = [
            {"algorithm": "ASNSC", "accuracy": 84.39, "mhd": 2.267, "time": 0.0625, "train_in": "A", "test_in": "A"},
            {"algorithm": "TASNSC", "accuracy": 90.47, "mhd": 2.031, "time": 0.0636, "train_in": "A", "test_in": "A"},
        ]
        text = format_table(rows)
        lines = text.splitlines()
        assert "Classification Accuracy (%)" in lines[0]
        assert len(lines) == 4
        assert "84.39" in lines[2] and "90.47" in lines[3]

    def test_candidate_csv(self, tmp_path):
        import csv

        observed = truth_to((1.0, 0.0))
        truth = truth_to((2.0, 0.0))
        p = pset(((1.5, 0.1), 0.6), ((0.5, 1.0), 0.4))
        path = tmp_path / "plot.csv"
        write_candidate_csv(path, observed, truth, p)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        roles = {r["role"] for r in rows}
        assert roles == {"observed", "truth", "candidate"}
        cand_rows = [r for r in rows if r["role"] == "candidate"]
        assert {r["candidate"] for r in cand_rows} == {"0", "1"}
