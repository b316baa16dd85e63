import dataclasses
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnsc import predictor
from tasnsc.geometry import frame_from_curbs, from_curbside, identity_frame, to_curbside, transform_trajectory
from tasnsc.gp import Kernel, PatternTable, fit, pattern_log_likelihood, posterior
from tasnsc.metrics import evaluate
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
from tasnsc.sparse_coding import Dictionary, GridSpec, featurize, pair_votes, segment
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


def votes_alone(traj, grid):
    """The pair votes of ``traj`` stacked alone."""
    return pair_votes(traj.xy, (0, len(traj)), traj.dt, grid)


def velocities_alone(traj):
    """The velocity rows of ``traj`` stacked alone."""
    return velocities(traj.xy, (0, len(traj)), [traj.dt])[0]


def grid_dictionary(model):
    """The model's dictionary with its atoms scattered onto every grid feature."""
    atoms = np.zeros((model.dictionary.k, model.grid.dim))
    atoms[:, model.columns] = model.dictionary.atoms
    return Dictionary(atoms=atoms)


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
        cfg = PipelineConfig(k_atoms=5, grid_cell=0.5, kernel=Kernel(1.5, 2.5, 0.8, 0.3))
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert doc["kernel"] == {"length_x": 1.5, "length_y": 2.5, "signal_sd": 0.8, "noise_sd": 0.3}
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

    @pytest.mark.parametrize("grid", [None, {"x_min": 0, "x_max": 1, "y_min": 0, "y_max": 1, "cell": 1.0}])
    def test_grid_key_rejected(self, grid):
        # Train always fits the grid; its cell is grid_cell.
        with pytest.raises(ValueError, match=re.escape("pipeline config: unknown keys ['grid']")):
            PipelineConfig.from_dict({"grid": grid})


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

    def test_failed_fit_names_its_pattern(self):
        # The GP reach shrinks with the shorter length scale: here to about
        # 3e-6 m, which every pattern's inputs exceed.
        scene = straight_scene()
        config = PipelineConfig(k_atoms=1, kernel=Kernel(length_x=1e-160, noise_sd=0.4))
        with pytest.raises(ValueError, match=re.escape("pattern (0, 0): GP inputs must lie within")):
            train(generate(scene, 20), scene.frame(), config)

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

    def test_transitions_name_the_patterns(self, model_a):
        # One pattern per nonzero count, row-major, its prior the count's share.
        T = model_a.transitions
        assert [p.atoms for p in model_a.patterns] == [tuple(pair) for pair in np.argwhere(T).tolist()]
        assert all(type(a) is int for p in model_a.patterns for a in p.atoms)
        assert [p.prior_weight for p in model_a.patterns] == [float(T[p.atoms] / T.sum()) for p in model_a.patterns]
        assert [p.flow for p in model_a.patterns] == list(model_a.flows)


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
        config = PipelineConfig(mode=mode)
        plain = train(data, frame, config)
        dt = data.dt
        resting = data.trajectories[3].xy[0]
        empty = Trajectory(id="empty", dt=dt, times=[], xy=np.empty((0, 2)))
        single = Trajectory(id="single", dt=dt, times=[0.0], xy=[resting])
        still = Trajectory(id="still", dt=dt, times=dt * np.arange(6), xy=np.tile(resting, (6, 1)))
        trajs = list(data.trajectories)
        padded = [empty, single] + trajs[:70] + [still, empty] + trajs[70:] + [single, still]
        model = train(Dataset(trajectories=padded), frame, config)
        # The added points lie inside the data's bounds, so the fitted grids agree.
        assert model.grid == plain.grid
        assert model.columns.tobytes() == plain.columns.tobytes()
        assert model.dictionary.atoms.tobytes() == plain.dictionary.atoms.tobytes()
        assert model.transitions.tobytes() == plain.transitions.tobytes()
        assert repr(model.final_objective) == repr(plain.final_objective)
        assert pattern_records(model) == pattern_records(plain)

    def test_grid_fits_each_trajectory_as_mapped_alone(self, small_a):
        frame = small_a["frame"]
        trajs = list(small_a["train"])[:20]
        # Lone points, some beyond the data: each must get the bits it gets
        # mapped alone, and they decide the grid's bounds.
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
        counts = [votes_alone(traj, grid).n_clipped for traj in curbside]
        assert np.count_nonzero(counts) > 1
        with caplog.at_level("WARNING"), mock.patch.object(predictor, "_fit_grid", return_value=grid):
            train(small_a["train"], frame, PipelineConfig(k_atoms=6, iters=40))
        assert [r.getMessage() for r in caplog.records] == [
            f"{sum(counts)} segment midpoints outside grid bounds were clipped"
        ]

    def test_matches_per_trajectory_featurize_and_segment(self, small_a):
        config = PipelineConfig(k_atoms=6, iters=40)
        with mock.patch.object(predictor, "learn_dictionary", wraps=predictor.learn_dictionary) as learn, \
                mock.patch.object(predictor, "build_transitions", wraps=predictor.build_transitions) as count:
            model = train(small_a["train"], small_a["frame"], config)
        curbside = [transform_trajectory(small_a["frame"], t) for t in small_a["train"]]
        alone = [votes_alone(t, model.grid) for t in curbside]
        features = np.vstack([featurize(votes, model.grid.dim) for votes in alone])
        assert learn.call_args.args[0].tobytes() == features[:, model.columns].tobytes()
        seglists = [segment(votes, grid_dictionary(model), config.min_segment)[0] for votes in alone]
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
            predictor, "log_likelihood_bounds", wraps=predictor.log_likelihood_bounds
        ) as bound, mock.patch.object(
            predictor, "pattern_log_likelihood", wraps=predictor.pattern_log_likelihood
        ) as score:
            predict_many(model_a, frame, obs)
        samples = [velocities_alone(transform_trajectory(frame, o)) for o in obs]
        table, rows, counts = bound.call_args.args
        assert table is model_a.table
        assert rows.tobytes() == np.vstack(samples).tobytes()
        assert list(counts) == [len(v) for v in samples]
        # Each exact scoring gets the rows of the observations it scores, in order.
        assert score.call_count > 0
        for call in score.call_args_list:
            _, rows, counts = call.args
            scored = [j for j in range(len(obs)) if samples[j].tobytes() in rows.tobytes()]
            assert rows.tobytes() == np.vstack([samples[j] for j in scored]).tobytes()
            assert list(counts) == [len(samples[j]) for j in scored]

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
            segs = segment(votes_alone(curb, model_a.grid), grid_dictionary(model_a), cfg.min_segment)[0]
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
    ``config.grid_cell`` follows the grid's cell.
    """
    g = model.grid
    cell = g.cell * factor
    cx, cy = 0.5 * (g.x_min + g.x_max), 0.5 * (g.y_min + g.y_max)
    hx, hy = 0.5 * g.nx * cell, 0.5 * g.ny * cell
    config = dataclasses.replace(model.config, grid_cell=cell)
    return dataclasses.replace(model, grid=GridSpec(cx - hx, cx + hx, cy - hy, cy + hy, cell), config=config)


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
        model = with_small_guard_box(model_a) if small_box else model_a
        # A batch on few patterns, with the small box: candidates share a
        # pattern and leave the box at different steps, so the rollout forms
        # its (pattern, candidates) groups again mid-rollout.
        rng = np.random.default_rng(3)
        which = rng.integers(0, 3, 24)
        g = model_a.grid
        start = rng.uniform((g.x_min, g.y_min), (g.x_max, g.y_max), (24, 2))
        args = (model.table.patterns, which, start, 0.5, 10, predictor._guard_box(model.grid))
        with mock.patch.object(predictor, "_groups", wraps=predictor._groups) as groups:
            points, variances = predictor._rollout(*args)
        want_points, want_variances = per_step_rollout(*args)
        assert points.tobytes() == want_points.tobytes()
        assert np.max(np.abs(variances - want_variances)) <= 1e-12
        if small_box:
            exits = [held_from(xy) for xy in points]
            shared = [u for u in range(3) if len({exits[c] for c in np.flatnonzero(which == u)}) > 1]
            assert shared and groups.call_count > 1
        # Model A on its own scene and across to scene B.
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

    def test_maps_every_rollout_back_in_one_call(self, model_a, small_b):
        frame, obs = small_b["frame"], observations(small_b["test"])
        with mock.patch.object(predictor, "from_curbside", wraps=predictor.from_curbside) as back:
            psets = predict_many(model_a, frame, obs)
        assert back.call_count == 1
        points = back.call_args.args[1]
        assert points.shape == (3 * len(obs), 10, 2)
        # Candidate c is rank c % 3 of observation c // 3, with the bits of a map of its own.
        cands = [c for ps in psets for c in ps.candidates]
        for cand, rollout in zip(cands, points, strict=True):
            assert cand.trajectory.xy.tobytes() == from_curbside(frame, rollout).tobytes()

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


def exhaustive_top_patterns(patterns, samples, counts, top_m):
    """Reference: every pattern scored on the whole stack, then a stable sort."""
    loglik = np.array([pattern_log_likelihood(p, samples, counts) for p in patterns])
    order = np.argsort(-loglik, axis=0, kind="stable")[: min(top_m, len(loglik))]
    return order, np.take_along_axis(loglik, order, axis=0)


def scoring_rows(frame, obs) -> list:
    return [velocities_alone(transform_trajectory(frame, o)) for o in obs]


@pytest.fixture(scope="module")
def ranking_cases(model_a, model_b, small_a, small_b):
    """(model, per-observation scoring rows): both models on both scenes."""
    return [
        (model, scoring_rows(data["frame"], observations(data["test"])))
        for model in (model_a, model_b)
        for data in (small_a, small_b)
    ]


class TestTopPatterns:
    @pytest.mark.parametrize("top_m", [1, 3, 5])
    def test_single_observation_bitwise_exhaustive(self, ranking_cases, top_m):
        for model, rows in ranking_cases:
            for v in rows:
                order, scores = predictor._top_patterns(model.table, v, np.array([len(v)]), top_m)
                want_order, want_scores = exhaustive_top_patterns(model.patterns, v, [len(v)], top_m)
                assert np.array_equal(order, want_order)
                assert scores.tobytes() == want_scores.tobytes()

    @pytest.mark.parametrize("top_m", [1, 3, 5])
    def test_batch_matches_exhaustive(self, ranking_cases, top_m):
        for model, rows in ranking_cases:
            counts = np.array([len(v) for v in rows])
            order, scores = predictor._top_patterns(model.table, np.vstack(rows), counts, top_m)
            want_order, want_scores = exhaustive_top_patterns(model.patterns, np.vstack(rows), counts, top_m)
            assert np.array_equal(order, want_order)
            assert np.all(np.abs(scores - want_scores) <= 1e-12 * np.maximum(1.0, np.abs(want_scores)))

    def test_fewer_patterns_than_top_m(self, model_a, small_a):
        obs = observations(small_a["test"])
        rows = scoring_rows(small_a["frame"], obs)
        for patterns in (model_a.patterns[:1], model_a.patterns[:2]):
            table = PatternTable(patterns, model_a.config.kernel)
            order, scores = predictor._top_patterns(table, rows[0], np.array([len(rows[0])]), 3)
            want_order, want_scores = exhaustive_top_patterns(patterns, rows[0], [len(rows[0])], 3)
            assert order.shape == (len(patterns), 1) and np.array_equal(order, want_order)
            assert scores.tobytes() == want_scores.tobytes()
        # Every pattern is a candidate, in exhaustive order.
        model = dataclasses.replace(model_a, config=dataclasses.replace(model_a.config, top_m=len(model_a.patterns) + 4))
        counts = [len(v) for v in rows]
        want_order, _ = exhaustive_top_patterns(model.patterns, np.vstack(rows), counts, model.config.top_m)
        for j, pset in enumerate(predict_many(model, small_a["frame"], obs)):
            assert [c.atoms for c in pset.candidates] == [model.patterns[p].atoms for p in want_order[:, j]]

    def test_candidates_are_the_exhaustive_top_m(self, model_a, small_b):
        frame, obs = small_b["frame"], observations(small_b["test"])
        rows = scoring_rows(frame, obs)
        want_order, _ = exhaustive_top_patterns(model_a.patterns, np.vstack(rows), [len(v) for v in rows], 3)
        for j, pset in enumerate(predict_many(model_a, frame, obs)):
            assert [c.atoms for c in pset.candidates] == [model_a.patterns[p].atoms for p in want_order[:, j]]

    def test_one_predict_scores_fewer_patterns_than_the_model_has(self, model_a, small_a):
        observed = observations(small_a["test"])[0]
        with mock.patch.object(
            predictor, "pattern_log_likelihood", wraps=predictor.pattern_log_likelihood
        ) as score:
            predict(model_a, small_a["frame"], observed)
        assert model_a.config.top_m <= score.call_count < len(model_a.patterns)

    def test_zero_likelihood_names_its_observation(self, model_a, small_a):
        # Each sample squares to a finite value, but the squared velocity
        # residual, about 2 * 1.3e154**2, does not: every pattern scores -inf.
        frame = identity_frame()
        model = dataclasses.replace(model_a, config=dataclasses.replace(model_a.config, mode="baseline"))
        obs = observations(small_a["test"])[:3]
        xy = obs[1].xy.copy()
        xy[3:] += 0.65e154
        obs[1] = Trajectory(id="fast", dt=obs[1].dt, times=obs[1].times, xy=xy)
        with np.errstate(over="ignore"), pytest.raises(TrajectoryError, match="observation 'fast' has likelihood zero"):
            predict_many(model, frame, obs)

    @pytest.mark.parametrize("x", [1e308, 1e200])
    def test_unscorable_sample_names_its_observation(self, model_a, small_a, x):
        # Finite points whose curbside samples square past the largest float.
        obs = observations(small_a["test"])[:3]
        xy = obs[1].xy.copy()
        xy[2, 0] = x
        obs[1] = Trajectory(id="huge", dt=obs[1].dt, times=obs[1].times, xy=xy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrajectoryError, match="observation 'huge' has curbside samples"):
                predict_many(model_a, small_a["frame"], obs)


class TestModelTable:
    """Each model builds its pattern table once, and every prediction reads it."""

    def test_one_table_across_predicts(self, model_a, small_a):
        table = model_a.table
        obs = observations(small_a["test"])
        with mock.patch.object(predictor, "log_likelihood_bounds", wraps=predictor.log_likelihood_bounds) as bound:
            predict_many(model_a, small_a["frame"], obs[:3])
            predict(model_a, small_a["frame"], obs[4])
        assert [call.args[0] for call in bound.call_args_list] == [table, table]
        assert model_a.table is table and table.patterns == tuple(model_a.patterns)

    def test_load_and_replace_build_new_tables(self, model_a, tmp_path):
        save_model(model_a, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.table is not model_a.table and loaded.table.patterns == tuple(loaded.patterns)
        for name in ("inputs", "alpha", "offsets", "log_prior"):
            assert getattr(loaded.table, name).tobytes() == getattr(model_a.table, name).tobytes()
        # The first three transitions alone, with their flows.
        transitions = model_a.transitions.copy()
        transitions.flat[np.flatnonzero(transitions)[3:]] = 0
        fewer = dataclasses.replace(model_a, transitions=transitions, flows=model_a.flows[:3])
        assert fewer.table is not model_a.table and fewer.table.patterns == tuple(fewer.patterns)
        assert [p.atoms for p in fewer.patterns] == [p.atoms for p in model_a.patterns[:3]]
        assert [p.prior_weight for p in fewer.patterns] == [
            float(transitions[p.atoms] / transitions.sum()) for p in fewer.patterns
        ]
        assert fewer.table.inputs.tobytes() == model_a.table.inputs[: model_a.table.offsets[3]].tobytes()

    def test_loaded_model_fits_with_the_config_kernel(self, model_a, small_a, tmp_path):
        kernel = {"length_x": 1.5, "length_y": 2.5, "signal_sd": 0.9, "noise_sd": 0.35}

        def edit(doc):
            doc["config"]["kernel"] = kernel

        model = load_model(edited_model_file(model_a, tmp_path, edit))
        assert model.table.kernel == model.config.kernel == Kernel(**kernel)
        assert all(pat.flow.kernel == Kernel(**kernel) for pat in model.patterns)
        obs = observations(small_a["test"])
        moved = predict_many(model, small_a["frame"], obs)
        assert not all(map(same_predictions, predict_many(model_a, small_a["frame"], obs), moved))

    def test_pattern_kernel_other_than_the_config_kernel_rejected(self, model_a):
        other = dataclasses.replace(model_a.config, kernel=Kernel(noise_sd=0.3))
        message = f"the patterns must be fit with GP kernel {other.kernel}, not {model_a.config.kernel}"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(model_a, config=other)


def mapped_predictions(model, data, target):
    """Predictions for ``data``'s test observations, as given and mapped into the frame ``target``.

    The map is M = ``from_curbside(target) ∘ to_curbside(frame)``, which
    takes the test frame onto ``target``: a rigid motion when ``target`` is
    the frame moved rigidly, an affine map with skew otherwise. Returns both
    prediction lists and M as a map of points.
    """
    frame, obs = data["frame"], observations(data["test"])

    def move(xy):
        return from_curbside(target, to_curbside(frame, xy))

    moved_obs = [Trajectory(id=o.id, dt=o.dt, times=o.times, xy=move(o.xy)) for o in obs]
    return predict_many(model, frame, obs), predict_many(model, target, moved_obs), move


def frame_at(origin, heading, alpha):
    """A frame at ``origin`` whose first curb points along ``heading`` and whose curbs meet at ``alpha``."""
    return frame_from_curbs(origin, (math.cos(heading), math.sin(heading)),
                            (math.cos(heading + alpha), math.sin(heading + alpha)))


def assert_predictions_follow(base, moved, move_points):
    for a_set, b_set in zip(base, moved, strict=True):
        for a, b in zip(a_set.candidates, b_set.candidates, strict=True):
            assert b.atoms == a.atoms
            assert abs(b.likelihood - a.likelihood) <= 1e-9
            assert np.array_equal(b.trajectory.times, a.trajectory.times)
            assert np.max(np.abs(b.trajectory.xy - move_points(a.trajectory.xy))) <= 1e-9


def assert_some_pattern_changes(base, moved):
    assert any(
        [c.atoms for c in a.candidates] != [c.atoms for c in b.candidates] for a, b in zip(base, moved)
    )


class TestRigidMotionProperty:
    """The transfer claim as a metamorphic test: moving a test scene rigidly moves every prediction the same way."""

    @settings(max_examples=30, deadline=None)
    @given(
        phi=st.floats(-math.pi, math.pi),
        radius=st.floats(0.0, 50.0),
        heading=st.floats(-math.pi, math.pi),
    )
    def test_tasnsc_predictions_move_with_the_scene(self, model_a, small_b, phi, radius, heading):
        frame = small_b["frame"]
        shift = radius * np.array([math.cos(heading), math.sin(heading)])
        rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
        moved_frame = frame_from_curbs(rot @ frame.origin + shift, rot @ frame.e1, rot @ frame.e2)
        assert_predictions_follow(*mapped_predictions(model_a, small_b, moved_frame))

    def test_baseline_predictions_do_not(self, baseline_a, small_b):
        # The baseline learns in the identity frame, so a moved scene lands
        # on other cells of its grid and picks other patterns.
        frame = small_b["frame"]
        rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
        moved_frame = frame_from_curbs(rot @ frame.origin + (4.0, -7.0), rot @ frame.e1, rot @ frame.e2)
        base, moved, _ = mapped_predictions(baseline_a, small_b, moved_frame)
        assert_some_pattern_changes(base, moved)


class TestSkewedFrameProperty:
    """The paper's transfer claim: any curb angle, not only rigid motion.

    Mapping a test scene by M = ``from_curbside(G) ∘ to_curbside(F)`` onto a
    frame G of any curb angle maps every TASNSC prediction by M: the
    curbside components, and so the patterns, are the same.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(math.radians(5.0), math.radians(175.0)),
        heading=st.floats(-math.pi, math.pi),
        radius=st.floats(0.0, 50.0),
        bearing=st.floats(-math.pi, math.pi),
    )
    def test_tasnsc_predictions_follow_a_skewed_frame(self, model_a, small_b, alpha, heading, radius, bearing):
        target = frame_at(radius * np.array([math.cos(bearing), math.sin(bearing)]), heading, alpha)
        assert_predictions_follow(*mapped_predictions(model_a, small_b, target))

    @settings(max_examples=10, deadline=None)
    @given(
        alpha=st.floats(math.radians(5.0), math.radians(175.0)),
        heading=st.floats(-math.pi, math.pi),
        radius=st.floats(0.0, 50.0),
        bearing=st.floats(-math.pi, math.pi),
    )
    def test_training_on_a_skewed_frame_gives_the_same_model(
        self, model_a, small_a, small_b, alpha, heading, radius, bearing
    ):
        # The training half: scene A's trajectories mapped by M and trained
        # with frame G give model A, up to the rounding of the map.
        target = frame_at(radius * np.array([math.cos(bearing), math.sin(bearing)]), heading, alpha)
        frame = small_a["frame"]
        moved = Dataset(trajectories=[
            Trajectory(id=t.id, dt=t.dt, times=t.times, xy=from_curbside(target, to_curbside(frame, t.xy)))
            for t in small_a["train"]
        ])
        model = train(moved, target, model_a.config)
        assert model.grid == model_a.grid
        assert [(p.atoms, p.prior_weight) for p in model.patterns] == [
            (p.atoms, p.prior_weight) for p in model_a.patterns
        ]
        assert model.columns.tobytes() == model_a.columns.tobytes()
        assert model.dictionary.atoms.tobytes() == model_a.dictionary.atoms.tobytes()
        assert np.array_equal(model.transitions, model_a.transitions)
        obs = observations(small_b["test"])
        assert_predictions_follow(
            predict_many(model_a, small_b["frame"], obs), predict_many(model, small_b["frame"], obs), lambda xy: xy
        )

    def test_baseline_predictions_change_under_a_skew(self, baseline_a, small_b):
        # The same corner and curb direction, with a curb angle of 40
        # degrees in place of scene B's: a pure skew about the corner.
        frame = small_b["frame"]
        heading = math.atan2(frame.e1[1], frame.e1[0])
        target = frame_at(frame.origin, heading, math.radians(40.0))
        base, moved, _ = mapped_predictions(baseline_a, small_b, target)
        assert_some_pattern_changes(base, moved)


class TestTransferAtAShortObservation:
    """The transfer claim where accuracy is not saturated.

    At the protocol's 2.5 s observation TASNSC B→A reads 100%. At 2.0 s the
    accuracy of every row falls below saturation, and the curbside frame
    still carries model B's patterns to scene A, while the local frame does
    not: 79.8% against 40.0% at test seed 1007.
    """

    def test_tasnsc_beats_the_baseline_from_b_to_a(self):
        sa, sb = scene_a(), scene_b()
        train_b = generate(sb, 150, tag="b-train")
        test_a = generate(with_seed(sa, 1007), 30, tag="a-test")
        accuracy = {}
        for mode in ("tasnsc", "baseline"):
            model = train(train_b, sb.frame(), PipelineConfig(mode=mode))
            probe = dataclasses.replace(model, config=dataclasses.replace(model.config, t_obs=2.0))
            accuracy[mode] = evaluate(probe, test_a, sa.frame()).classification_accuracy
        # Acceptance criterion 7's margin.
        assert accuracy["tasnsc"] >= accuracy["baseline"] + 10.0, accuracy


@pytest.fixture(scope="module")
def baseline_a(small_a):
    return train(small_a["train"], small_a["frame"], PipelineConfig(mode="baseline"))


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
    @pytest.mark.parametrize("key, message", [("inputs", "GP inputs must lie within"), ("vx", "GP weights too large")])
    def test_pattern_values_out_of_reach_name_the_pattern(self, model_a, tmp_path, key, message):
        atoms = model_a.patterns[1].atoms

        def edit(doc):
            rec = doc["patterns"][1]
            rec[key][0] = [1e308, 0.0] if key == "inputs" else 1e308

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"pattern {atoms}: {message}")):
                load_model(edited_model_file(model_a, tmp_path, edit))

    def test_transitions_not_square(self, model_a, tmp_path):
        def edit(doc):
            doc["transitions"] = [row[:-1] for row in doc["transitions"]]

        with pytest.raises(ValueError, match="transitions have shape"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_atom_width_differs_from_columns(self, model_a, tmp_path):
        def edit(doc):
            doc["atoms"] = [atom[:-4] for atom in doc["atoms"]]

        m = len(model_a.columns)
        with pytest.raises(ValueError, match=f"{m} columns for dictionary atoms of width {m - 4}"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_non_finite_atom(self, model_a, tmp_path):
        def edit(doc):
            doc["atoms"][0][0] = float("nan")

        with pytest.raises(ValueError, match="non-finite"):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_unknown_pattern_kernel_key(self, model_a, tmp_path):
        # The kernel is config.kernel; a pattern record does not repeat it.
        def edit(doc):
            doc["patterns"][0]["kernel"] = doc["config"]["kernel"]

        message = "pattern: unknown keys ['kernel'], missing keys []"
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
            ({"version": 5}, "model file: unknown keys [], missing keys ['config', 'frame', 'grid', 'columns'"),
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
            (lambda doc: doc["patterns"][0].update(extra=1), "pattern: unknown keys ['extra'], missing keys []"),
            (lambda doc: doc["patterns"][0].pop("vy"), "pattern: unknown keys [], missing keys ['vy']"),
            (lambda doc: doc["patterns"][0]["vy"].pop(), "has vx of shape"),
            (lambda doc: doc["config"].update(k_atoms=99), "the dictionary has 12 atoms, config.k_atoms is 99"),
            (lambda doc: doc["atoms"].pop(), "the dictionary has 11 atoms, config.k_atoms is 12"),
            # Version 1's dictionary record.
            (lambda doc: doc.update(dictionary={"k": 12, "atoms": doc.pop("atoms")}),
             "model file: unknown keys ['dictionary'], missing keys ['atoms']"),
            (lambda doc: doc["patterns"].append(doc["patterns"][0]), "35 pattern records for 34 nonzero transitions"),
            (lambda doc: doc["patterns"].pop(), "33 pattern records for 34 nonzero transitions"),
            (lambda doc: doc["transitions"][0].__setitem__(0, 1.7), "transitions must be integer counts"),
            (lambda doc: doc["transitions"][0].__setitem__(0, -1), "transitions must be nonnegative counts"),
            (lambda doc: doc.update(transitions=[[0] * 12] * 12), "34 pattern records for 0 nonzero transitions"),
            (lambda doc: doc["transitions"][0].__setitem__(slice(0, 2), [2**62, 2**62]),
             "more than an int64 holds"),
            (lambda doc: doc.update(transitions=5), "transitions have shape (), expected (0, 0)"),
            # Version 4's pattern record named its pair and prior.
            (lambda doc: doc["patterns"][0].update(atoms=[0, 1], prior_weight=0.5),
             "pattern: unknown keys ['atoms', 'prior_weight'], missing keys []"),
            (lambda doc: doc["columns"].__setitem__(1, 1.5), "model file columns must be a list of integers"),
            (lambda doc: doc.update(columns=[False] + doc["columns"][1:]), "columns must be a list of integers"),
            (lambda doc: doc.update(columns=[[c] for c in doc["columns"]]), "columns must be a list of integers"),
            (lambda doc: doc["columns"].__setitem__(1, doc["columns"][0]), "columns must be strictly increasing"),
            (lambda doc: doc["columns"].__setitem__(0, -4), "strictly increasing grid features, in [0, 2356)"),
            (lambda doc: doc["columns"].__setitem__(-1, 2356), "strictly increasing grid features, in [0, 2356)"),
            (lambda doc: doc["columns"].append(2355), "77 columns for dictionary atoms of width 76"),
            (lambda doc: doc.update(columns=2**70), "model file columns must be a list of integers"),
        ],
        ids=["pattern-extra-key", "pattern-missing-vy",
             "vx-vy-lengths", "dictionary-k", "atom-count",
             "dictionary-extra-key", "pattern-too-many", "pattern-too-few", "float-transition", "negative-count",
             "zero-transitions", "wrapping-total", "scalar-transitions", "pattern-pair-keys",
             "float-column", "bool-column", "nested-columns", "repeated-column", "negative-column",
             "column-past-grid", "column-count", "columns-not-a-list"],
    )
    def test_bad_record_rejected(self, model_a, tmp_path, edit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_model(edited_model_file(model_a, tmp_path, edit))

    def test_model_rejects_duplicate_patterns_and_fractional_transitions(self, model_a):
        n = len(model_a.flows)
        with pytest.raises(ValueError, match=re.escape(f"{n + 1} flows for {n} nonzero transitions")):
            dataclasses.replace(model_a, flows=model_a.flows + model_a.flows[:1])
        with pytest.raises(ValueError, match="transitions must be integer counts, got float64"):
            dataclasses.replace(model_a, transitions=model_a.transitions + 0.7)

    def test_model_rejects_counts_that_are_negative_zero_or_wrap(self, model_a):
        T = model_a.transitions
        negative = T.copy()
        negative.flat[np.flatnonzero(T == 0)[0]] = -1
        with pytest.raises(ValueError, match="transitions must be nonnegative counts"):
            dataclasses.replace(model_a, transitions=negative)
        with pytest.raises(ValueError, match="no motion patterns: a pattern table needs at least one"):
            dataclasses.replace(model_a, transitions=np.zeros_like(T), flows=[])
        # 144 counts of 2**59 sum to 2**66 + 2**63, which an int64 sum wraps.
        with pytest.raises(ValueError, match="more than an int64 holds"):
            dataclasses.replace(model_a, transitions=np.full_like(T, 2**59))
        for big in (np.uint64, np.int64):
            huge = np.zeros(T.shape, dtype=big)
            huge.flat[np.flatnonzero(T)[:2]] = 2**62
            with pytest.raises(ValueError, match="more than an int64 holds"):
                dataclasses.replace(model_a, transitions=huge)

    def test_patterns_are_derived_not_passed(self, model_a):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(model_a, patterns=model_a.patterns[:3])

    @pytest.mark.parametrize("kind", ["float", "2-d"])
    def test_model_rejects_columns_not_1d_integers(self, model_a, kind):
        columns = model_a.columns.astype(float) if kind == "float" else model_a.columns[None]
        with pytest.raises(ValueError, match="columns must be a 1-D integer array"):
            dataclasses.replace(model_a, columns=columns)

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
        reordered = path.with_name("reordered.json")
        reordered.write_text(json.dumps(shuffled(doc, rnd)))
        loaded, reloaded = load_model(path), load_model(reordered)
        assert loaded.config == reloaded.config == config
        for traj in small_a["test"].trajectories[:3]:
            obs, _ = split_horizon(traj, config.t_obs, config.t_pred)
            pset = predict(model, small_a["frame"], obs)
            assert same_predictions(pset, predict(loaded, small_a["frame"], obs))
            assert same_predictions(pset, predict(reloaded, small_a["frame"], obs))
