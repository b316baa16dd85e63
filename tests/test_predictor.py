import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnsc import predictor
from tasnsc.geometry import frame_from_curbs, identity_frame, to_curbside, transform_trajectory
from tasnsc.gp import Kernel, fit, posterior
from tasnsc.predictor import (
    PipelineConfig,
    PipelineError,
    PredictionSet,
    load_model,
    predict,
    predict_many,
    save_model,
    train,
)
from tasnsc.sparse_coding import GridSpec, featurize, segment
from tasnsc.synthgen import SceneSpec, generate, scene_a, scene_b, scene_to_config, with_seed
from tasnsc.trajectory import Dataset, Trajectory, TrajectoryError, split_horizon, velocities


def straight_scene(**overrides):
    base = dict(
        heading=0.2,
        alpha=math.radians(80),
        intent_mix={"straight": 1.0},
        noise_sd=0.05,
        seed=21,
    )
    base.update(overrides)
    return SceneSpec(**base)


INT_FIELDS = ["k_atoms", "iters", "min_segment", "top_m", "max_gp_points", "seed"]


class TestPipelineConfig:
    @pytest.mark.parametrize(
        "name, bad",
        [("dt", math.nan), ("dt", math.inf), ("t_obs", math.nan), ("t_obs", math.inf),
         ("t_pred", math.nan), ("t_pred", math.inf), ("sparsity", math.nan), ("sparsity", math.inf),
         ("grid_cell", math.nan), ("grid_cell", math.inf)],
    )
    def test_non_finite_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            PipelineConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_non_integer_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PipelineConfig(**{name: bad})

    @pytest.mark.parametrize(
        "name, fields",
        [("t_obs", {"t_obs": 1e308}), ("t_pred", {"t_pred": 1e308}), ("t_pred", {"dt": 1e-300, "t_pred": 1e10})],
    )
    def test_step_count_overflow_rejected(self, name, fields):
        # The horizons are counted in steps, int(round(t / dt)), which
        # cannot take an infinite quotient.
        with pytest.raises(ValueError, match=f"{name} / dt must be finite"):
            PipelineConfig(**fields)

    @pytest.mark.parametrize("t_pred, dt", [(0.2, 0.5), (0.25, 0.5), (0.04, 0.1)])
    def test_horizon_under_one_step_rejected(self, t_pred, dt):
        with pytest.raises(ValueError, match="t_pred must be at least one step of dt"):
            PipelineConfig(t_pred=t_pred, dt=dt)

    def test_one_step_horizon_accepted(self):
        assert PipelineConfig(t_pred=0.3, dt=0.5).t_pred == 0.3

    def test_numpy_integers_accepted(self):
        assert PipelineConfig(k_atoms=np.int64(4)).k_atoms == 4

    def test_dict_round_trip(self):
        grid = GridSpec(-1.0, 4.0, -2.0, 3.0, 0.5)
        cfg = PipelineConfig(k_atoms=5, kernel=Kernel(1.5, 2.5, 0.8, 0.3), grid=grid)
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert doc["grid"] == {"x_min": -1.0, "x_max": 4.0, "y_min": -2.0, "y_max": 3.0, "cell": 0.5}
        assert PipelineConfig.from_dict(doc) == cfg

    def test_missing_top_level_keys_take_defaults(self):
        assert PipelineConfig.from_dict({"iters": 40}) == PipelineConfig(iters=40)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match=re.escape("unknown keys ['itres']")):
            PipelineConfig.from_dict({"itres": 40})

    def test_unknown_kernel_key_rejected(self):
        kernel = {"lenght_x": 2.0, "length_y": 2.0, "signal_sd": 1.0, "noise_sd": 0.4}
        message = "kernel: unknown keys ['lenght_x'], missing keys ['length_x']"
        with pytest.raises(ValueError, match=re.escape(message)):
            PipelineConfig.from_dict({"kernel": kernel})

    def test_missing_kernel_key_rejected(self):
        with pytest.raises(ValueError, match=re.escape("missing keys ['length_y']")):
            PipelineConfig.from_dict({"kernel": {"length_x": 2.0, "signal_sd": 1.0, "noise_sd": 0.4}})

    def test_null_kernel_rejected(self):
        with pytest.raises(ValueError, match="kernel must be a JSON object"):
            PipelineConfig.from_dict({"kernel": None})

    def test_missing_grid_key_rejected(self):
        with pytest.raises(ValueError, match=re.escape("grid: unknown keys [], missing keys ['cell']")):
            PipelineConfig.from_dict({"grid": {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1}})


class TestTrain:
    def test_needs_trajectories(self):
        with pytest.raises(PipelineError):
            train(Dataset(trajectories=[]), identity_frame())

    def test_dt_mismatch_rejected(self):
        scene = straight_scene()
        with pytest.raises(PipelineError, match="dt=0.25"):
            train(generate(scene, 10, dt=0.25), scene.frame(), PipelineConfig())

    def test_straight_corpus_flow_direction(self):
        scene = straight_scene()
        model = train(generate(scene, 30), scene.frame(), PipelineConfig(k_atoms=4))
        assert len(model.patterns) >= 1
        # In curbside coordinates the straight flow runs along -y' (down the
        # second curb); check the dominant pattern near the walkway.
        pattern = max(model.patterns, key=lambda p: p.prior_weight)
        down = np.array([0.0, -1.0])
        for y in (3.0, 1.0, -1.0, -3.0):
            flow = posterior(pattern.flow, [(scene.sidewalk_offset, y)])[0][0]
            angle = math.degrees(math.acos(np.clip(flow @ down / np.linalg.norm(flow), -1, 1)))
            assert angle < 15.0

    def test_single_atom_self_pair(self):
        scene = straight_scene()
        model = train(generate(scene, 20), scene.frame(), PipelineConfig(k_atoms=1))
        assert model.dictionary.k == 1
        assert [p.atoms for p in model.patterns] == [(0, 0)]

    def test_baseline_equals_tasnsc_on_identity_frame(self):
        # When the curbside frame IS the local frame, the transform changes
        # nothing and both modes must agree bit for bit.
        scene = straight_scene(heading=0.0, alpha=math.pi / 2, corner=(0.0, 0.0))
        data = generate(scene, 25)
        frame = identity_frame()
        m_t = train(data, frame, PipelineConfig(k_atoms=3, mode="tasnsc"))
        m_b = train(data, frame, PipelineConfig(k_atoms=3, mode="baseline"))
        assert np.array_equal(m_t.dictionary.atoms, m_b.dictionary.atoms)
        assert np.array_equal(m_t.transitions, m_b.transitions)
        obs, _ = split_horizon(data.trajectories[0], 2.5, 5.0)
        p_t = predict(m_t, frame, obs)
        p_b = predict(m_b, frame, obs)
        for a, b in zip(p_t.candidates, p_b.candidates):
            assert np.array_equal(a.trajectory.xy, b.trajectory.xy)
            assert a.likelihood == b.likelihood

    def test_grid_covers_training_data(self, model_a, small_a):
        g = model_a.grid
        for traj in small_a["train"]:
            comps = to_curbside(small_a["frame"], traj.xy)
            assert np.all(comps[:, 0] >= g.x_min) and np.all(comps[:, 0] <= g.x_max)
            assert np.all(comps[:, 1] >= g.y_min) and np.all(comps[:, 1] <= g.y_max)

    def test_pattern_gps_share_one_factor(self, model_a):
        for pattern in model_a.patterns:
            assert pattern.flow.targets.shape == (len(pattern.flow), 2)
            assert pattern.gp_x.inputs is pattern.gp_y.inputs is pattern.flow.inputs
            assert all(np.shares_memory(v.targets, pattern.flow.targets) for v in (pattern.gp_x, pattern.gp_y))

    def test_patterns_have_positive_counts(self, model_a):
        for pat in model_a.patterns:
            assert model_a.transitions[pat.atoms] > 0
            assert 0 < pat.prior_weight <= 1


def pattern_records(model) -> list:
    return [
        (pat.atoms, pat.prior_weight, pat.flow.inputs.tobytes(), pat.flow.targets.tobytes())
        for pat in model.patterns
    ]


class TestStackedFrontEnd:
    """``train`` maps, votes and segments all trajectories in one stack.

    ``predict_many`` maps and scores all its observations in one stack.
    """

    @pytest.fixture(scope="class")
    def canonical_a(self):
        scene = scene_a()
        return generate(scene, 150, tag="a-train"), scene.frame()

    @pytest.mark.parametrize("mode", ["tasnsc", "baseline"])
    def test_dropped_trajectories_leave_the_model_unchanged(self, canonical_a, mode):
        data, frame = canonical_a
        config = dataclasses.replace(PipelineConfig(mode=mode), grid=train(data, frame, PipelineConfig(mode=mode)).grid)
        plain = train(data, frame, config)
        dt = data.dt
        resting = data.trajectories[3].xy[0]
        empty = Trajectory(id="empty", dt=dt, times=[], xy=np.empty((0, 2)))
        single = Trajectory(id="single", dt=dt, times=[0.0], xy=[resting])
        still = Trajectory(id="still", dt=dt, times=dt * np.arange(6), xy=np.tile(resting, (6, 1)))
        trajs = list(data.trajectories)
        padded = [empty, single] + trajs[:70] + [still, empty] + trajs[70:] + [single, still]
        model = train(Dataset(trajectories=padded), frame, config)
        assert model.dictionary.atoms.tobytes() == plain.dictionary.atoms.tobytes()
        assert model.transitions.tobytes() == plain.transitions.tobytes()
        assert repr(model.final_objective) == repr(plain.final_objective)
        assert pattern_records(model) == pattern_records(plain)

    def test_grid_fits_each_trajectory_as_mapped_alone(self, small_a):
        frame = small_a["frame"]
        trajs = list(small_a["train"])[:20]
        # Lone points, some beyond the data: LAPACK maps one point on
        # another path than a stack of them, and about half of them round
        # differently there.
        points = np.vstack([t.xy for t in trajs])[::40] * 1.5
        lone = [Trajectory(id=f"lone-{k}", dt=0.5, times=[0.0], xy=[p]) for k, p in enumerate(points)]
        trajs = lone[:4] + trajs[:10] + lone[4:] + trajs[10:]
        with mock.patch.object(predictor, "_fit_grid", wraps=predictor._fit_grid) as fit_grid:
            train(Dataset(trajectories=trajs), frame, PipelineConfig(k_atoms=4, iters=20))
        alone = np.vstack([transform_trajectory(frame, t).xy for t in trajs])
        assert fit_grid.call_args.args[0].tobytes() == alone.tobytes()

    def test_one_clip_warning_with_the_total(self, small_a, caplog):
        frame = small_a["frame"]
        curbside = [transform_trajectory(frame, t) for t in small_a["train"]]
        lo = np.min([t.xy.min(axis=0) for t in curbside], axis=0)
        hi = np.max([t.xy.max(axis=0) for t in curbside], axis=0)
        # Half the data's x range: many trajectories leave the grid.
        grid = GridSpec(lo[0] - 1.0, 0.5 * (lo[0] + hi[0]), lo[1] - 1.0, hi[1] + 1.0, cell=1.0)
        with caplog.at_level("WARNING"):
            for traj in curbside:
                featurize(traj, grid)
        counts = [int(re.search(r": (\d+) segment midpoints", r.getMessage()).group(1)) for r in caplog.records]
        assert len(counts) > 1
        caplog.clear()
        with caplog.at_level("WARNING"):
            train(small_a["train"], frame, PipelineConfig(k_atoms=6, iters=40, grid=grid))
        assert [r.getMessage() for r in caplog.records] == [
            f"{sum(counts)} segment midpoints outside grid bounds were clipped"
        ]

    def test_matches_per_trajectory_featurize_and_segment(self, small_a):
        config = PipelineConfig(k_atoms=6, iters=40)
        with mock.patch.object(predictor, "learn_dictionary", wraps=predictor.learn_dictionary) as learn, \
                mock.patch.object(predictor, "build_transitions", wraps=predictor.build_transitions) as count:
            model = train(small_a["train"], small_a["frame"], config)
        curbside = [transform_trajectory(small_a["frame"], t) for t in small_a["train"]]
        features = np.stack([featurize(t, model.grid) for t in curbside])
        assert learn.call_args.args[0].tobytes() == features.tobytes()
        seglists = [segment(t, model.dictionary, model.grid, config.min_segment) for t in curbside]
        assert count.call_args.args[0] == seglists

    def test_non_finite_curbside_point_names_its_trajectory(self):
        # Curbs 2e-6 rad apart: a finite local point 1e303 m out maps past
        # the largest float.
        eps = 2e-6
        frame = frame_from_curbs((0.0, 0.0), (1.0, 0.0), (math.cos(eps), math.sin(eps)))
        walk = 0.5 * np.arange(6)[:, None] * np.array([[1.0, 0.2]])
        trajs = [
            Trajectory(id="ok-1", dt=0.5, times=0.5 * np.arange(6), xy=walk),
            Trajectory(id="far", dt=0.5, times=0.5 * np.arange(6), xy=walk + (0.0, 1e303)),
            Trajectory(id="ok-2", dt=0.5, times=0.5 * np.arange(6), xy=walk + 1.0),
        ]
        with pytest.raises(TrajectoryError, match="'far'"):
            train(Dataset(trajectories=trajs), frame, PipelineConfig(k_atoms=2))

    def test_scores_the_samples_of_each_observation_mapped_alone(self, model_a, small_b):
        frame = small_b["frame"]
        obs = observations(small_b["test"])[:5]
        # Within the pipeline's dt tolerance, but its own divisor.
        obs[2] = Trajectory(id="slow-clock", dt=0.5 + 5e-10, times=obs[2].times, xy=obs[2].xy)
        with mock.patch.object(
            predictor, "pattern_log_likelihood", wraps=predictor.pattern_log_likelihood
        ) as score:
            predict_many(model_a, frame, obs)
        samples = [velocities(transform_trajectory(frame, o)) for o in obs]
        assert score.call_count == len(model_a.patterns)
        for call in score.call_args_list:
            _, rows, counts = call.args
            assert rows.tobytes() == np.vstack(samples).tobytes()
            assert list(counts) == [len(v) for v in samples]

    def test_non_finite_observation_point_names_its_observation(self, model_a, small_a):
        eps = 2e-6
        frame = frame_from_curbs((0.0, 0.0), (1.0, 0.0), (math.cos(eps), math.sin(eps)))
        obs = observations(small_a["test"])[:3]
        obs[1] = Trajectory(id="far", dt=obs[1].dt, times=obs[1].times, xy=obs[1].xy + (0.0, 1e303))
        with pytest.raises(TrajectoryError, match="'far'"):
            predict_many(model_a, frame, obs)


class TestPredict:
    def test_prediction_set_shape(self, model_a, small_a):
        traj = small_a["test"].trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        pset = predict(model_a, small_a["frame"], obs)
        likelihoods = [c.likelihood for c in pset.candidates]
        assert sum(likelihoods) == pytest.approx(1.0, abs=1e-9)
        assert len(pset.candidates) <= model_a.config.top_m
        n_steps = round(model_a.config.t_pred / model_a.config.dt)
        for cand in pset.candidates:
            assert len(cand.trajectory) == n_steps
            assert len(cand.step_variance) == n_steps

    def test_single_pattern_likelihood_one(self):
        scene = straight_scene()
        model = train(generate(scene, 20), scene.frame(), PipelineConfig(k_atoms=1))
        traj = generate(with_seed(scene, 5), 1, tag="t").trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        pset = predict(model, scene.frame(), obs)
        assert len(pset.candidates) == 1
        assert pset.candidates[0].likelihood == 1.0

    def test_short_observation_rejected(self, model_a, small_a):
        obs = Trajectory(id="s", dt=0.5, times=[0.0, 0.5], xy=[[0, 0], [0.5, 0]])
        with pytest.raises(TrajectoryError):
            predict(model_a, small_a["frame"], obs)

    def test_dt_mismatch_rejected(self, model_a, small_a):
        t = 0.25 * np.arange(11)
        obs = Trajectory(id="q", dt=0.25, times=t, xy=np.column_stack((t, np.zeros_like(t))))
        with pytest.raises(PipelineError, match="dt=0.25"):
            predict(model_a, small_a["frame"], obs)

    def test_replayed_training_prefix_recovers_own_pattern(self, model_a, small_a):
        cfg = model_a.config
        hits = 0
        checked = 0
        for traj in small_a["train"].trajectories[:10]:
            obs, fut = split_horizon(traj, cfg.t_obs, cfg.t_pred)
            pset = predict(model_a, small_a["frame"], obs)
            top = pset.top()
            curb = transform_trajectory(small_a["frame"], traj)
            segs = segment(curb, model_a.dictionary, model_a.grid, cfg.min_segment)
            atoms = [s.atom for s in segs]
            own = {(a, b) for a, b in zip(atoms[:-1], atoms[1:])} or {(atoms[0], atoms[0])}
            checked += 1
            if top.atoms in own:
                hits += 1
                anchor = obs.xy[-1]
                d_pred = top.trajectory.xy[-1] - anchor
                d_true = fut.xy[-1] - anchor
                cos = d_pred @ d_true / (np.linalg.norm(d_pred) * np.linalg.norm(d_true))
                assert math.degrees(math.acos(np.clip(cos, -1, 1))) < 40.0
        assert hits / checked >= 0.8

    def test_cross_angle_rollout_stays_on_sidewalk(self, model_a):
        # Train at 90 degrees, observe a left turn at 60 degrees: prediction
        # follows the turn instead of crossing either curb line.
        scene = scene_b()
        left_scene = SceneSpec(**{**scene_to_config(scene), "intent_mix": {"left": 1.0}, "seed": 77})
        frame = left_scene.frame()
        for traj in generate(left_scene, 5, tag="lt"):
            obs, _ = split_horizon(traj, 2.5, 5.0)
            pset = predict(model_a, frame, obs)
            comps = to_curbside(frame, pset.top().trajectory.xy)
            assert np.all(comps >= -0.5)

    def test_rigid_equivariance(self, model_a, small_b):
        # Rigidly moving the test intersection moves predictions identically.
        phi = 0.6
        shift = np.array([4.0, -7.0])
        R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        frame = small_b["frame"]
        moved_frame = frame_from_curbs(R @ frame.origin + shift, R @ frame.e1, R @ frame.e2)
        traj = small_b["test"].trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        moved_obs = Trajectory(id=obs.id, dt=obs.dt, times=obs.times, xy=obs.xy @ R.T + shift)
        base = predict(model_a, frame, obs)
        moved = predict(model_a, moved_frame, moved_obs)
        for a, b in zip(base.candidates, moved.candidates):
            assert b.likelihood == pytest.approx(a.likelihood, abs=1e-9)
            assert np.max(np.abs(b.trajectory.xy - (a.trajectory.xy @ R.T + shift))) < 1e-6

    def test_deterministic(self, small_a):
        cfg = PipelineConfig(k_atoms=6, iters=60)
        m1 = train(small_a["train"], small_a["frame"], cfg)
        m2 = train(small_a["train"], small_a["frame"], cfg)
        traj = small_a["test"].trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        p1 = predict(m1, small_a["frame"], obs)
        p2 = predict(m2, small_a["frame"], obs)
        assert [c.likelihood for c in p1.candidates] == [c.likelihood for c in p2.candidates]
        for a, b in zip(p1.candidates, p2.candidates):
            assert np.array_equal(a.trajectory.xy, b.trajectory.xy)


class TestPredictionSetInvariants:
    def test_likelihoods_must_normalize(self, model_a, small_a):
        traj = small_a["test"].trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        pset = predict(model_a, small_a["frame"], obs)
        bad = [
            type(c)(trajectory=c.trajectory, likelihood=c.likelihood * 0.5, atoms=c.atoms, step_variance=c.step_variance)
            for c in pset.candidates
        ]
        if len(bad) > 1:
            with pytest.raises(ValueError):
                PredictionSet(candidates=bad)

    def test_nan_likelihood_rejected(self, model_a, small_a):
        obs, _ = split_horizon(small_a["test"].trajectories[0], 2.5, 5.0)
        c = predict(model_a, small_a["frame"], obs).candidates[0]
        nan = type(c)(trajectory=c.trajectory, likelihood=float("nan"), atoms=c.atoms, step_variance=c.step_variance)
        with pytest.raises(ValueError, match="finite"):
            PredictionSet(candidates=[nan])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PredictionSet(candidates=[])


class TestModelIO:
    def test_round_trip_predictions(self, model_a, small_a, tmp_path):
        path = tmp_path / "model.json"
        save_model(model_a, path)
        loaded = load_model(path)
        assert loaded.dictionary.k == model_a.dictionary.k
        assert np.array_equal(loaded.transitions, model_a.transitions)
        traj = small_a["test"].trajectories[0]
        obs, _ = split_horizon(traj, 2.5, 5.0)
        p1 = predict(model_a, small_a["frame"], obs)
        p2 = predict(loaded, small_a["frame"], obs)
        for a, b in zip(p1.candidates, p2.candidates):
            assert a.atoms == b.atoms
            assert b.likelihood == pytest.approx(a.likelihood, abs=1e-12)
            assert np.max(np.abs(a.trajectory.xy - b.trajectory.xy)) < 1e-9

    def test_loaded_pattern_gps_share_one_factor(self, model_a, tmp_path):
        path = tmp_path / "model.json"
        save_model(model_a, path)
        for pattern in load_model(path).patterns:
            assert pattern.flow.targets.shape == (len(pattern.flow), 2)
            assert pattern.gp_x.inputs is pattern.gp_y.inputs is pattern.flow.inputs
            assert all(np.shares_memory(v.targets, pattern.flow.targets) for v in (pattern.gp_x, pattern.gp_y))

    def test_version_checked(self, model_a, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_model(model_a, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)


def observations(test):
    return [split_horizon(t, 2.5, 5.0)[0] for t in test]


def with_small_guard_box(model, factor=0.25):
    """``model`` with its grid cells, and so its guard box, shrunk about the grid center.

    The cell counts, and so the feature dimension, stay the same; only the
    rollouts read the grid at prediction time, so they leave the box sooner.
    """
    g = model.grid
    cell = g.cell * factor
    cx, cy = 0.5 * (g.x_min + g.x_max), 0.5 * (g.y_min + g.y_max)
    hx, hy = 0.5 * g.nx * cell, 0.5 * g.ny * cell
    return dataclasses.replace(model, grid=GridSpec(cx - hx, cx + hx, cy - hy, cy + hy, cell))


def held_from(xy) -> int | None:
    """First step whose point repeats the one before it, if any."""
    same = np.flatnonzero(np.all(xy[1:] == xy[:-1], axis=1))
    return int(same[0]) + 1 if len(same) else None


def assert_close_sets(got, want, tol=1e-12):
    assert len(got.candidates) == len(want.candidates)
    for a, b in zip(got.candidates, want.candidates):
        assert a.atoms == b.atoms and a.trajectory.id == b.trajectory.id
        assert np.array_equal(a.trajectory.times, b.trajectory.times)
        assert np.max(np.abs(a.trajectory.xy - b.trajectory.xy)) <= tol
        assert np.max(np.abs(a.step_variance - b.step_variance)) <= tol
        assert abs(a.likelihood - b.likelihood) <= tol


def per_step_rollout(patterns, which, start, dt, n_steps, box):
    """Reference rollout: one full posterior query per pattern and Euler step, variance included."""
    p = np.array(start, dtype=float)
    points = np.empty((len(p), n_steps, 2))
    variances = np.empty((len(p), n_steps))
    step_var = np.zeros(len(p))
    alive = np.ones(len(p), dtype=bool)
    for k in range(n_steps):
        for u in np.unique(which[alive]):
            sel = np.flatnonzero(alive & (which == u))
            mean, var = posterior(patterns[u].flow, p[sel])
            p[sel] += dt * mean
            step_var[sel] = 2.0 * var
        alive &= (box[0] <= p[:, 0]) & (p[:, 0] <= box[1]) & (box[2] <= p[:, 1]) & (p[:, 1] <= box[3])
        points[:, k] = p
        variances[:, k] = step_var
    return points, variances


class TestPredictMany:
    def test_empty_batch(self, model_a, small_a):
        assert predict_many(model_a, small_a["frame"], []) == []

    def test_bad_observation_rejects_batch(self, model_a, small_a):
        short = Trajectory(id="s", dt=0.5, times=[0.0, 0.5], xy=[[0, 0], [0.5, 0]])
        with pytest.raises(TrajectoryError, match="'s' spans"):
            predict_many(model_a, small_a["frame"], observations(small_a["test"])[:3] + [short])

    def test_rollout_leaving_guard_box_holds(self, model_a, small_a):
        obs = observations(small_a["test"])
        full_box = [c for p in predict_many(model_a, small_a["frame"], obs) for c in p.candidates]
        assert all(held_from(c.trajectory.xy) is None for c in full_box)
        held = 0
        for pset in predict_many(with_small_guard_box(model_a), small_a["frame"], obs):
            for cand in pset.candidates:
                k = held_from(cand.trajectory.xy)
                if k is None:
                    continue
                held += 1
                assert np.all(cand.trajectory.xy[k:] == cand.trajectory.xy[k - 1])
                assert np.all(cand.step_variance[k:] == cand.step_variance[k - 1])
        assert 0 < held < len(full_box)

    @settings(max_examples=25, deadline=None)
    @given(
        scene=st.sampled_from(["a", "b"]),
        small_box=st.booleans(),
        order=st.permutations(range(12)),
        size=st.integers(1, 12),
    )
    def test_equals_one_at_a_time(self, model_a, small_a, small_b, scene, small_box, order, size):
        # Model A on its own scene and across to scene B, with and without
        # rollouts that leave the guard box, over subsets in any order.
        data = small_a if scene == "a" else small_b
        model = with_small_guard_box(model_a) if small_box else model_a
        obs = [observations(data["test"])[i] for i in order[:size]]
        for got, one in zip(predict_many(model, data["frame"], obs), obs, strict=True):
            assert_close_sets(got, predict(model, data["frame"], one))

    @pytest.mark.parametrize("small_box", [False, True])
    def test_matches_per_step_rollout(self, model_a, small_a, small_b, small_box, monkeypatch):
        # Model A on its own scene and across to scene B.
        model = with_small_guard_box(model_a) if small_box else model_a
        cases = [(data["frame"], observations(data["test"])) for data in (small_a, small_b)]
        got = [ps for frame, obs in cases for ps in predict_many(model, frame, obs)]
        monkeypatch.setattr(predictor, "_rollout", per_step_rollout)
        want = [ps for frame, obs in cases for ps in predict_many(model, frame, obs)]
        for g, w in zip(got, want, strict=True):
            for a, b in zip(g.candidates, w.candidates, strict=True):
                assert (a.atoms, a.likelihood, a.trajectory.id) == (b.atoms, b.likelihood, b.trajectory.id)
                assert np.array_equal(a.trajectory.times, b.trajectory.times)
                assert np.array_equal(a.trajectory.xy, b.trajectory.xy)
                assert np.max(np.abs(a.step_variance - b.step_variance)) <= 1e-12

    def test_one_variance_solve_per_candidate_pattern(self, model_a, small_a, monkeypatch):
        calls = []
        real = predictor.posterior

        def counted(model, query):
            calls.append(model)
            return real(model, query)

        monkeypatch.setattr(predictor, "posterior", counted)
        psets = predict_many(model_a, small_a["frame"], observations(small_a["test"]))
        flows = {id(p.flow): p.atoms for p in model_a.patterns}
        assert sorted(flows[id(m)] for m in calls) == sorted({c.atoms for ps in psets for c in ps.candidates})

    def test_step_variance_is_sum_of_component_variances(self, model_a, small_b):
        # Each step's variance is var_x + var_y of the two scalar GPs at the
        # point the step starts from, which is twice the flow's variance.
        frame = small_b["frame"]
        by_atoms = {p.atoms: p for p in model_a.patterns}
        for obs in observations(small_b["test"])[:4]:
            start = transform_trajectory(frame, obs).xy[-1]
            for cand in predict(model_a, frame, obs).candidates:
                pattern = by_atoms[cand.atoms]
                before = np.vstack(([start], to_curbside(frame, cand.trajectory.xy)[:-1]))
                flow = pattern.flow
                var_x, var_y = (
                    posterior(fit(flow.inputs, flow.targets[:, c], flow.kernel), before)[1] for c in (0, 1)
                )
                assert np.max(np.abs(cand.step_variance - (var_x + var_y))) < 1e-12
                assert np.max(np.abs(cand.step_variance - 2.0 * posterior(pattern.flow, before)[1])) < 1e-12


def moved_predictions(model, data, phi, shift):
    """Predictions for ``data``'s test observations, as given and moved rigidly with their frame.

    The motion is a rotation by ``phi`` then a translation by ``shift``;
    returns both prediction lists and the motion as a map of points.
    """
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])

    def move(xy):
        return xy @ rot.T + shift

    frame, obs = data["frame"], observations(data["test"])
    moved_frame = frame_from_curbs(move(frame.origin), rot @ frame.e1, rot @ frame.e2)
    moved_obs = [Trajectory(id=o.id, dt=o.dt, times=o.times, xy=move(o.xy)) for o in obs]
    return predict_many(model, frame, obs), predict_many(model, moved_frame, moved_obs), move


class TestRigidMotionProperty:
    """The transfer claim as a metamorphic test: moving a test scene rigidly moves every prediction the same way."""

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.floats(-math.pi, math.pi),
        radius=st.floats(0.0, 50.0),
        heading=st.floats(-math.pi, math.pi),
    )
    def test_tasnsc_predictions_move_with_the_scene(self, model_a, small_b, phi, radius, heading):
        shift = radius * np.array([math.cos(heading), math.sin(heading)])
        base, moved, move_points = moved_predictions(model_a, small_b, phi, shift)
        for a_set, b_set in zip(base, moved, strict=True):
            for a, b in zip(a_set.candidates, b_set.candidates, strict=True):
                assert b.atoms == a.atoms
                assert abs(b.likelihood - a.likelihood) <= 1e-9
                assert np.array_equal(b.trajectory.times, a.trajectory.times)
                assert np.max(np.abs(b.trajectory.xy - move_points(a.trajectory.xy))) <= 1e-9

    def test_baseline_predictions_do_not(self, small_a, small_b):
        # The baseline learns in the identity frame, so a moved scene lands
        # on other cells of its grid and picks other patterns.
        baseline = train(small_a["train"], small_a["frame"], PipelineConfig(mode="baseline"))
        base, moved, _ = moved_predictions(baseline, small_b, 0.6, np.array([4.0, -7.0]))
        assert any(
            [c.atoms for c in a.candidates] != [c.atoms for c in b.candidates] for a, b in zip(base, moved)
        )


def edited_model_file(model, tmp_path, edit):
    """Save ``model``, apply ``edit`` to the JSON document, write it back."""
    import json

    path = tmp_path / "edited.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


class TestModelChecks:
    @pytest.mark.parametrize("atom", ["negative", "k"])
    def test_atom_index_out_of_range(self, model_a, tmp_path, atom):
        k = model_a.dictionary.k
        bad = -k if atom == "negative" else k

        def edit(doc):
            doc["patterns"][0]["atoms"] = [bad, 0]

        with pytest.raises(ValueError, match=rf"atom outside \[0, {k}\)"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_transitions_not_square(self, model_a, tmp_path):
        def edit(doc):
            doc["transitions"] = [row[:-1] for row in doc["transitions"]]

        with pytest.raises(ValueError, match="transitions have shape"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_atom_dimension_differs_from_grid(self, model_a, tmp_path):
        def edit(doc):
            doc["dictionary"]["atoms"] = [atom[:-4] for atom in doc["dictionary"]["atoms"]]

        with pytest.raises(ValueError, match="dictionary atoms have dimension"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_non_finite_atom(self, model_a, tmp_path):
        def edit(doc):
            doc["dictionary"]["atoms"][0][0] = float("nan")

        with pytest.raises(ValueError, match="non-finite"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_unknown_pattern_kernel_key(self, model_a, tmp_path):
        def edit(doc):
            doc["patterns"][0]["kernel"]["lenght_x"] = doc["patterns"][0]["kernel"].pop("length_x")

        message = "pattern kernel: unknown keys ['lenght_x'], missing keys ['length_x']"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_missing_grid_key(self, model_a, tmp_path):
        def edit(doc):
            del doc["grid"]["y_max"]

        with pytest.raises(ValueError, match=re.escape("grid: unknown keys [], missing keys ['y_max']")):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_frame_missing_curb2(self, model_a, tmp_path):
        def edit(doc):
            del doc["frame"]["curb2"]

        with pytest.raises(ValueError, match=re.escape("frame config: unknown keys [], missing keys ['curb2']")):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_non_finite_frame_origin(self, model_a, tmp_path):
        def edit(doc):
            doc["frame"]["origin"] = [float("nan"), 0.0]

        with pytest.raises(ValueError, match="frame origin must be finite"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "model file must be a JSON object, got list"),
            ({"version": 1}, "model file: unknown keys [], missing keys ['config', 'frame', 'grid'"),
        ],
        ids=["list", "version-only"],
    )
    def test_top_level_checked(self, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(path)

    def test_unknown_top_level_key(self, model_a, tmp_path):
        def edit(doc):
            doc["extra"] = 1

        with pytest.raises(ValueError, match=re.escape("model file: unknown keys ['extra']")):
            load_model(edited_model_file(model_a, tmp_path, edit))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["patterns"][0].update(atoms=[0.0, 1.0]), "pattern atoms must be a pair of integers"),
            (lambda doc: doc["patterns"][0].update(atoms=[0]), "pattern atoms must be a pair of integers"),
            (lambda doc: doc["patterns"][0].update(atoms=[True, 0]), "pattern atoms must be a pair of integers"),
            (lambda doc: doc["patterns"][0].update(extra=1), "pattern: unknown keys ['extra'], missing keys []"),
            (lambda doc: doc["patterns"][0].pop("vy"), "pattern: unknown keys [], missing keys ['vy']"),
            (lambda doc: doc["patterns"][0]["vy"].pop(), "has vx of shape"),
            (lambda doc: doc["dictionary"].update(k=99), "dictionary k is 99, expected"),
            (lambda doc: doc["dictionary"].update({"lambda": 5.0}), "dictionary lambda is 5.0, expected 0.1"),
            (lambda doc: doc["dictionary"].update(seed=3), "dictionary seed is 3, expected 0"),
            (lambda doc: doc["dictionary"].update(extra=1), "dictionary: unknown keys ['extra'], missing keys []"),
            (lambda doc: doc["patterns"].append(doc["patterns"][0]), "appears more than once"),
            (lambda doc: doc["transitions"][0].__setitem__(0, 1.7), "transitions must be integer counts"),
            (lambda doc: [p.update(prior_weight=1.0) for p in doc["patterns"]], "has prior weight 1.0"),
            (lambda doc: doc["patterns"][-1].update(prior_weight=math.nextafter(doc["patterns"][-1]["prior_weight"], 1)),
             "has prior weight"),
        ],
        ids=["float-atoms", "one-atom", "bool-atom", "pattern-extra-key", "pattern-missing-vy",
             "vx-vy-lengths", "dictionary-k", "dictionary-lambda", "dictionary-seed",
             "dictionary-extra-key", "duplicate-pattern", "float-transition", "prior-weight", "prior-weight-ulp"],
    )
    def test_bad_record_rejected(self, model_a, tmp_path, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_model_rejects_duplicate_patterns_and_fractional_transitions(self, model_a):
        with pytest.raises(ValueError, match=re.escape(f"pattern {model_a.patterns[0].atoms} appears more than once")):
            dataclasses.replace(model_a, patterns=model_a.patterns + model_a.patterns[:1])
        with pytest.raises(ValueError, match="transitions must be integer counts, got float64"):
            dataclasses.replace(model_a, transitions=model_a.transitions + 0.7)

    def test_non_integer_config_field(self, model_a, tmp_path):
        def edit(doc):
            doc["config"]["top_m"] = 1.5

        with pytest.raises(ValueError, match="top_m must be an integer"):
            load_model(edited_model_file(model_a, tmp_path, edit))


def same_predictions(p1, p2) -> bool:
    """Bitwise equality of two prediction sets."""
    return len(p1.candidates) == len(p2.candidates) and all(
        a.atoms == b.atoms
        and a.likelihood == b.likelihood
        and np.array_equal(a.trajectory.xy, b.trajectory.xy)
        and np.array_equal(a.trajectory.times, b.trajectory.times)
        and np.array_equal(a.step_variance, b.step_variance)
        for a, b in zip(p1.candidates, p2.candidates)
    )


def shuffled(d: dict, rnd) -> dict:
    keys = list(d)
    rnd.shuffle(keys)
    return {k: d[k] for k in keys}


class TestSaveLoadProperty:
    """A saved and reloaded model predicts bitwise the same, whatever its key order."""

    @settings(max_examples=15, deadline=None)
    @given(
        length_x=st.floats(0.3, 5.0),
        length_y=st.floats(0.3, 5.0),
        signal_sd=st.floats(0.2, 3.0),
        noise_sd=st.floats(0.05, 1.0),
        cell=st.floats(0.5, 2.0),
        top_m=st.integers(1, 5),
        rnd=st.randoms(use_true_random=False),
    )
    def test_reload_predicts_bitwise_same(
        self, small_a, tmp_path_factory, length_x, length_y, signal_sd, noise_sd, cell, top_m, rnd
    ):
        kernel = Kernel(length_x, length_y, signal_sd, noise_sd)
        config = PipelineConfig(k_atoms=6, iters=40, grid_cell=cell, top_m=top_m, kernel=kernel)
        model = train(small_a["train"], small_a["frame"], config)
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["config"]["kernel"] = shuffled(doc["config"]["kernel"], rnd)
        doc["config"] = shuffled(doc["config"], rnd)
        doc["grid"] = shuffled(doc["grid"], rnd)
        for rec in doc["patterns"]:
            rec["kernel"] = shuffled(rec["kernel"], rnd)
        reordered = path.with_name("reordered.json")
        reordered.write_text(json.dumps(shuffled(doc, rnd)))
        loaded, reloaded = load_model(path), load_model(reordered)
        assert loaded.config == reloaded.config == config
        for traj in small_a["test"].trajectories[:3]:
            obs, _ = split_horizon(traj, config.t_obs, config.t_pred)
            pset = predict(model, small_a["frame"], obs)
            assert same_predictions(pset, predict(loaded, small_a["frame"], obs))
            assert same_predictions(pset, predict(reloaded, small_a["frame"], obs))
