import json
import math
import re

import numpy as np
import pytest

from tasnsc.geometry import from_curbside, to_curbside
from tasnsc.gp import _MAX_ROOT
from tasnsc.synthgen import (
    _DENSE_STEP,
    _MAX_PATH_POINTS,
    _MIN_SPEED,
    SceneSpec,
    _dense_path,
    _intent_waypoints,
    generate,
    load_scene,
    scene_a,
    scene_b,
    scene_to_config,
    with_seed,
)


class TestSceneSpec:
    def test_bad_proportions(self):
        with pytest.raises(ValueError):
            SceneSpec(intent_mix={"straight": 0.5, "left": 0.2, "right": 0.2})

    def test_unknown_intent(self):
        with pytest.raises(ValueError):
            SceneSpec(intent_mix={"straight": 0.5, "loop": 0.5})

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            SceneSpec(speed_mean=-1.0)

    @pytest.mark.parametrize(
        "name, bad",
        [("speed_mean", math.nan), ("speed_mean", math.inf), ("speed_sd", math.nan), ("speed_sd", math.inf),
         ("sidewalk_offset", math.nan), ("approach_len", math.inf), ("exit_len", math.nan),
         ("exit_len", math.inf), ("blend_len", math.nan), ("noise_sd", math.nan), ("noise_sd", math.inf),
         ("heading", math.nan), ("alpha", math.nan), ("alpha", 0.0), ("corner", (math.nan, 0.0))],
    )
    def test_non_finite_rejected(self, name, bad):
        # With a NaN speed the along-path walk never reaches the path end.
        with pytest.raises(ValueError):
            SceneSpec(**{name: bad})

    def test_fastest_speed_bounded(self):
        bound = _MAX_ROOT / 4
        SceneSpec(speed_mean=bound, speed_sd=0.0)  # at the bound
        for fields in ({"speed_mean": bound, "speed_sd": 1e150}, {"speed_mean": 1e308}, {"speed_sd": 1e308}):
            with pytest.raises(ValueError, match=re.escape(f"speed_mean + 3 * speed_sd <= {bound:.4g} m/s")):
                SceneSpec(**fields)

    @pytest.mark.parametrize("fields", [{"exit_len": 1e12}, {"approach_len": 1e6}, {"exit_len": 3e4}])
    def test_path_point_budget(self, fields):
        # Rejected before the lookup table is built, so nothing is allocated.
        message = f"more than the {_MAX_PATH_POINTS * _DENSE_STEP:.4g} m that {_MAX_PATH_POINTS} lookup points"
        with pytest.raises(ValueError, match=re.escape(message)):
            SceneSpec(**fields)

    def test_nan_intent_proportion_rejected(self):
        with pytest.raises(ValueError, match="intent proportions"):
            SceneSpec(intent_mix={"straight": math.nan, "left": 0.5, "right": 0.5})

    @pytest.mark.parametrize("bad", [1.5, -1, True, "3", None])
    def test_seed_must_be_nonnegative_integer(self, bad):
        with pytest.raises(ValueError, match="scene seed must be a nonnegative integer"):
            SceneSpec(seed=bad)

    def test_numpy_integer_seed_accepted(self):
        assert SceneSpec(seed=np.int64(3)).seed == 3

    def test_frame_matches_angles(self):
        scene = SceneSpec(heading=0.3, alpha=math.pi / 3)
        frame = scene.frame()
        assert frame.alpha == pytest.approx(math.pi / 3)
        assert frame.e1 @ np.array([math.cos(0.3), math.sin(0.3)]) == pytest.approx(1.0)


class TestGenerate:
    def test_deterministic(self):
        scene = scene_a()
        d1 = generate(scene, 20)
        d2 = generate(scene, 20)
        for a, b in zip(d1, d2):
            assert a.id == b.id
            assert np.array_equal(a.xy, b.xy)

    def test_seed_changes_output(self):
        d1 = generate(scene_a(), 5)
        d2 = generate(with_seed(scene_a(), 12345), 5)
        assert not np.array_equal(d1.trajectories[0].xy, d2.trajectories[0].xy)

    def test_straight_only_noiseless_parallel_to_curb(self):
        scene = SceneSpec(
            heading=0.4,
            alpha=math.radians(75),
            intent_mix={"straight": 1.0},
            noise_sd=0.0,
            speed_sd=0.0,
        )
        ds = generate(scene, 5)
        frame = scene.frame()
        for traj in ds:
            steps = np.diff(traj.xy, axis=0)
            # Straight walkers move along the second curb (direction -e2).
            cross = steps[:, 0] * frame.e2[1] - steps[:, 1] * frame.e2[0]
            assert np.max(np.abs(cross)) < 1e-9
            comps = to_curbside(frame, traj.xy)
            assert np.allclose(comps[:, 0], scene.sidewalk_offset, atol=1e-9)

    def test_valid_trajectories(self):
        for scene in (scene_a(), scene_b()):
            ds = generate(scene, 40)
            assert len(ds) == 40
            assert len({t.dt for t in ds}) == 1
            # Long enough for the 2.5 s + 5 s benchmark protocol.
            assert min(len(t) for t in ds) >= 16

    def test_intent_labels_carried(self):
        ds = generate(scene_a(), 10, tag="x")
        for traj in ds:
            assert traj.intent in ("straight", "left", "right")
            assert traj.id.endswith(traj.intent)

    def test_intent_mix_converges(self):
        scene = with_seed(scene_a(), 99)
        n = 3000
        ds = generate(scene, n)
        counts = {k: 0 for k in scene.intent_mix}
        for traj in ds:
            counts[traj.intent] += 1
        for name, p in scene.intent_mix.items():
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[name] / n - p) <= 3 * se

    def test_noise_stays_near_path(self):
        scene = scene_a()
        noiseless = generate(SceneSpec(**{**scene_to_config(scene), "noise_sd": 0.0}), 15)
        noisy = generate(scene, 15)
        dists = []
        for clean, rough in zip(noiseless, noisy):
            ref = clean.xy
            for p in rough.xy:
                dists.append(np.min(np.linalg.norm(ref - p, axis=1)))
        assert np.mean(dists) <= 3 * scene.noise_sd

    def test_skewed_scene_containment(self):
        # Before stepping into a street, walkers stay on the sidewalk side
        # of both curbs (within the sidewalk offset).
        scene = scene_b()
        assert scene.alpha == pytest.approx(math.pi / 3)
        frame = scene.frame()
        for traj in generate(scene, 30):
            comps = to_curbside(frame, traj.xy)
            inside = np.min(comps, axis=1)
            crossing = np.flatnonzero(inside < 0.0)
            pre = comps[: crossing[0]] if len(crossing) else comps
            assert np.all(pre >= -scene.sidewalk_offset)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            generate(scene_a(), 0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -0.5])
    def test_bad_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            generate(scene_a(), 3, dt=dt)

    def test_step_past_the_shortest_path_rejected(self):
        # Only the intents in the mix count: the straight path is 16 m, and
        # the turns are shorter.
        scene = SceneSpec(speed_mean=1.6, speed_sd=0.0, noise_sd=0.0, intent_mix={"straight": 1.0})
        assert [len(t) for t in generate(scene, 3, dt=9.9)] == [2, 2, 2]
        message = "dt=12.0 s is too long: a slowest step, 1.6 m/s, covers the 16 m intent path"
        with pytest.raises(ValueError, match=re.escape(message)):
            generate(scene, 3, dt=12.0)


def reference_generate(scene, n, dt=0.5):
    """Per-trajectory path tables and a ``np.clip`` speed draw: the generator's old loop."""
    frame = scene.frame()
    names = [name for name in ("straight", "left", "right") if scene.intent_mix.get(name, 0.0) > 0.0]
    probs = np.array([scene.intent_mix[name] for name in names])
    seeds = np.random.SeedSequence(scene.seed).spawn(n + 1)
    intents = np.random.default_rng(seeds[0]).choice(names, size=n, p=probs / probs.sum())
    lo = max(_MIN_SPEED, scene.speed_mean - 3.0 * scene.speed_sd)
    hi = scene.speed_mean + 3.0 * scene.speed_sd
    out = []
    for i, intent in enumerate(intents):
        rng = np.random.default_rng(seeds[i + 1])
        s_grid, pts = _dense_path(from_curbside(frame, _intent_waypoints(scene, intent)), scene.blend_len)
        stations, s = [0.0], 0.0
        while True:
            s += float(np.clip(rng.normal(scene.speed_mean, scene.speed_sd), lo, hi)) * dt
            if s > s_grid[-1]:
                break
            stations.append(s)
        xy = np.column_stack((np.interp(stations, s_grid, pts[:, 0]), np.interp(stations, s_grid, pts[:, 1])))
        if scene.noise_sd > 0:
            xy = xy + rng.normal(0.0, scene.noise_sd, xy.shape)
        out.append(xy)
    return out


class TestGenerateReference:
    @pytest.mark.parametrize("scene", [scene_a(), scene_b(), SceneSpec(speed_sd=0.6, noise_sd=0.0, seed=4)])
    def test_bitwise_equal_to_reference(self, scene):
        got = generate(scene, 25, dt=0.5)
        want = reference_generate(scene, 25, dt=0.5)
        assert len(got) == len(want)
        for traj, xy in zip(got, want):
            assert np.array_equal(traj.xy, xy)


class TestSceneConfig:
    def test_round_trip(self, tmp_path):
        scene = scene_b()
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_to_config(scene)))
        back = load_scene(path)
        assert back == scene

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"corner": [0, 0], "zoom": 3}))
        with pytest.raises(ValueError):
            load_scene(path)

    def test_missing_keys_take_defaults(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"corner": [3.0, -2.0], "seed": 5}))
        assert load_scene(path) == SceneSpec(corner=(3.0, -2.0), seed=5)
