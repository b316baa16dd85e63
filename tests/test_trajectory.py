import re

import numpy as np
import pytest

from tasnsc.trajectory import (
    Dataset,
    Trajectory,
    TrajectoryError,
    load_dataset,
    save_dataset,
    split_horizon,
    velocities,
)


def velocities_of(traj):
    """The velocity rows of ``traj`` stacked alone."""
    return velocities(traj.xy, (0, len(traj)), [traj.dt])[0]


def walk(id="w", dt=0.5, n=16, vx=1.4, vy=0.0, x0=0.0, y0=0.0):
    t = dt * np.arange(n)
    return Trajectory(id=id, dt=dt, times=t, xy=np.column_stack((x0 + vx * t, y0 + vy * t)))


class TestTrajectory:
    def test_validates_spacing(self):
        with pytest.raises(TrajectoryError):
            Trajectory(id="bad", dt=0.5, times=[0.0, 0.5, 1.2], xy=np.zeros((3, 2)))

    def test_validates_monotonic(self):
        with pytest.raises(TrajectoryError):
            Trajectory(id="bad", dt=0.5, times=[0.0, 0.5, 0.5], xy=np.zeros((3, 2)))

    def test_duration_and_points(self):
        traj = walk(n=5)
        assert traj.duration == pytest.approx(2.0)
        assert traj.points.shape == (5, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        xy = np.zeros((3, 2))
        xy[1, 1] = bad
        with pytest.raises(TrajectoryError, match="non-finite"):
            Trajectory(id="nf", dt=0.5, times=[0.0, 0.5, 1.0], xy=xy)
        with pytest.raises(TrajectoryError, match="non-finite"):
            Trajectory(id="nf", dt=0.5, times=[0.0, bad, 1.0], xy=np.zeros((3, 2)))
        with pytest.raises(TrajectoryError, match="finite"):
            Trajectory(id="nf", dt=bad, times=[0.0, 0.5, 1.0], xy=np.zeros((3, 2)))

    def test_empty_allowed(self):
        traj = Trajectory(id="e", dt=0.5, times=np.empty(0), xy=np.empty((0, 2)))
        assert len(traj) == 0 and traj.duration == 0.0


    def test_frozen_arrays_shared_everything_else_copied(self):
        traj = walk(n=4)
        assert not traj.times.flags.writeable and not traj.xy.flags.writeable
        again = Trajectory(id="again", dt=0.5, times=traj.times, xy=traj.xy)
        assert again.times is traj.times and again.xy is traj.xy
        writable = np.array([0.0, 0.5, 1.0])
        view = traj.xy[:3]
        copied = Trajectory(id="c", dt=0.5, times=writable, xy=view)
        assert not np.shares_memory(copied.times, writable) and not np.shares_memory(copied.xy, traj.xy)
        writable[0] = -1.0
        assert copied.times[0] == 0.0

    @pytest.mark.parametrize(
        "times, xy, shapes",
        [
            ([0.0, 0.5], [1.0, 2.0, 3.0, 4.0], "(2,) and (4,)"),
            ([0.0, 0.5], [[[1.0, 2.0]], [[3.0, 4.0]]], "(2,) and (2, 1, 2)"),
            ([0.0, 0.5], [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]], "(2,) and (2, 3)"),
            ([0.0, 0.5, 1.0], [[1.0, 2.0], [3.0, 4.0]], "(3,) and (2, 2)"),
            ([[0.0], [0.5]], [[1.0, 2.0], [3.0, 4.0]], "(2, 1) and (2, 2)"),
        ],
        ids=["flat-xy", "nested-xy", "three-columns", "lengths-differ", "column-times"],
    )
    def test_other_shapes_rejected(self, times, xy, shapes):
        with pytest.raises(TrajectoryError, match=re.escape(f"'s' needs times (n,) and xy (n, 2), got {shapes}")):
            Trajectory(id="s", dt=0.5, times=times, xy=xy)


class TestVelocities:
    def test_straight_walk(self):
        v = velocities_of(walk(vx=1.4, n=10))
        assert np.allclose(v[:, 2], 1.4)
        assert np.allclose(v[:, 3], 0.0)

    def test_stationary(self):
        traj = Trajectory(id="s", dt=0.5, times=[0, 0.5, 1.0], xy=np.ones((3, 2)))
        v = velocities_of(traj)
        assert np.allclose(v[:, 2:], 0.0)

    def test_forward_difference(self):
        traj = Trajectory(id="f", dt=1.0, times=[0, 1, 2], xy=[[0, 0], [1, 0], [1, 1]])
        v = velocities_of(traj)
        assert np.allclose(v[:, 2:], [[1, 0], [0, 1]])

    def test_too_short(self):
        # One point has no forward difference.
        rows, row_offsets = velocities(np.zeros((1, 2)), (0, 1), [0.5])
        assert rows.shape == (0, 4)
        assert row_offsets.tolist() == [0, 0]

    def test_stack_is_bitwise_each_trajectory_alone(self):
        # Empty and one-point trajectories add no rows; each pair is
        # divided by its own trajectory's dt.
        rng = np.random.default_rng(7)
        for _ in range(20):
            parts = [rng.uniform(-60, 60, (n, 2)) for n in rng.choice([0, 1, *range(2, 40)], 12)]
            dts = rng.choice([0.25, 0.5, 0.5 + 5e-10, 1.0 / 3.0], len(parts))
            offsets = np.cumsum([0] + [len(p) for p in parts])
            rows, row_offsets = velocities(np.vstack(parts), offsets, dts)
            alone = [velocities(p, (0, len(p)), [dt])[0] for p, dt in zip(parts, dts)]
            assert rows.tobytes() == np.vstack(alone).tobytes()
            assert row_offsets.tolist() == np.cumsum([0] + [len(a) for a in alone]).tolist()
            # The forward-difference rule itself, pair by pair.
            assert all(
                np.array_equal(a, np.hstack((p[:-1], np.diff(p, axis=0) / dt)))
                for a, p, dt in zip(alone, parts, dts) if len(p) >= 2
            )

    def test_constant_after_resample(self):
        traj = walk(vx=1.1, vy=-0.4, n=24, dt=0.25)
        v = velocities_of(traj)
        assert np.max(np.abs(v[:, 2] - 1.1)) < 1e-9
        assert np.max(np.abs(v[:, 3] + 0.4)) < 1e-9


class TestSplitHorizon:
    def test_benchmark_horizons(self):
        observed, future = split_horizon(walk(n=16, dt=0.5), 2.5, 5.0)
        assert len(observed) == 5
        assert len(future) == 10

    def test_full_duration_rejected(self):
        traj = walk(n=16, dt=0.5)
        with pytest.raises(TrajectoryError):
            split_horizon(traj, traj.duration, 5.0)

    def test_zero_observation(self):
        observed, future = split_horizon(walk(n=16, dt=0.5), 0.0, 5.0)
        assert len(observed) == 0
        assert len(future) == 10

    def test_prefix_reproduced(self):
        traj = walk(n=20)
        observed, future = split_horizon(traj, 2.5, 5.0)
        joined = np.vstack((observed.xy, future.xy))
        assert np.array_equal(joined, traj.xy[: len(joined)])


class TestDataset:
    def test_mixed_dt_rejected(self):
        with pytest.raises(TrajectoryError):
            Dataset(trajectories=[walk(dt=0.5), walk(dt=0.25)])

    def test_jsonl_round_trip(self, tmp_path):
        ds = Dataset(trajectories=[walk(id="a"), walk(id="b", vy=0.3)])
        path = tmp_path / "data.jsonl"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert [t.id for t in back] == ["a", "b"]
        assert np.allclose(back.trajectories[1].xy, ds.trajectories[1].xy)

    def test_nan_in_file_rejected(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"id": "a", "dt": 0.5, "points": [[0, 0, 0]]}\n'
            '{"id": "b", "dt": 0.5, "points": [[0, 0, 0], [0.5, NaN, 0]]}\n'
        )
        with pytest.raises(TrajectoryError, match=re.escape(f"{path}:2: 'b' has non-finite timestamps or positions")):
            load_dataset(path)

    def test_bad_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "points, detail",
        [
            ("[[0, 0, 0], [0.5, 1]]", ""),
            ("[[0, 0], [0.5, 1]]", "points must be rows (t, x, y), got shape (2, 2)"),
            # The six numbers of two good rows, regrouped.
            ("[[0, 0], [0, 0.5], [1, 0]]", "points must be rows (t, x, y), got shape (3, 2)"),
            ("[0, 0, 0, 0.5, 1, 0]", "points must be rows (t, x, y), got shape (6,)"),
            ("[[[0, 0, 0]], [[0.5, 1, 0]]]", "points must be rows (t, x, y), got shape (2, 1, 3)"),
        ],
        ids=["ragged", "two-columns", "three-rows-of-two", "flat", "nested"],
    )
    def test_malformed_points_name_the_line(self, tmp_path, points, detail):
        path = tmp_path / "bad.jsonl"
        path.write_text(f'{{"id": "a", "dt": 0.5, "points": [[0, 0, 0]]}}\n{{"id": "b", "dt": 0.5, "points": {points}}}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: bad trajectory record: {detail}")):
            load_dataset(path)

    def test_empty_points_load_as_a_zero_point_trajectory(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"id": "a", "dt": 0.5, "points": []}\n')
        (traj,) = load_dataset(path)
        assert traj.times.shape == (0,) and traj.xy.shape == (0, 2)

    def test_mixed_dt_names_the_line(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "a", "dt": 0.5, "points": [[0, 0, 0], [0.5, 1, 0]]}\n'
            '{"id": "b", "dt": 0.25, "points": [[0, 0, 0], [0.25, 1, 0]]}\n'
        )
        message = f"{path}:2: 'b' is sampled at dt=0.25, the first record at dt=0.5"
        with pytest.raises(TrajectoryError, match=re.escape(message)):
            load_dataset(path)
