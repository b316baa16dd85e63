"""Trajectory data model, finite-difference velocities and I/O.

A trajectory is a sequence of 2-D positions sampled at a fixed time step.
Datasets are stored as JSON lines, one trajectory per line:

    {"id": "...", "dt": 0.5, "points": [[t, x, y], ...]}
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .gp import _MAX_ROOT

__all__ = [
    "TrajectoryError",
    "Trajectory",
    "Dataset",
    "velocities",
    "velocity_stack",
    "split_horizon",
    "load_dataset",
    "save_dataset",
]

_TIME_TOL = 1e-6


class TrajectoryError(ValueError):
    """Raised for trajectories too short or irregular for an operation."""


def _frozen(values) -> np.ndarray:
    """``values`` as a float array of the trajectory's own.

    A read-only float array that owns its data, such as another
    trajectory's, is shared; anything else is copied.
    """
    if isinstance(values, np.ndarray) and values.dtype == float and values.base is None and not values.flags.writeable:
        return values
    return np.array(values, dtype=float)


# Slots keep instances small: each predicted candidate holds one.
@dataclass(frozen=True, eq=False, slots=True)
class Trajectory:
    """Uniformly sampled 2-D track: timestamps ``times`` and positions ``xy``.

    ``intent`` is an optional ground-truth label attached by the synthetic
    generator; it is carried in memory only and never serialized.
    """

    id: str
    dt: float
    times: np.ndarray
    xy: np.ndarray
    intent: str | None = field(default=None)

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise TrajectoryError(f"dt must be positive and finite, got {self.dt}")
        times, xy = _frozen(self.times), _frozen(self.xy)
        if xy.shape[1:] != (2,) or times.shape != xy.shape[:1]:
            raise TrajectoryError(f"{self.id!r} needs times (n,) and xy (n, 2), got {times.shape} and {xy.shape}")
        if not (np.isfinite(times).all() and np.isfinite(xy).all()):
            raise TrajectoryError(f"{self.id!r} has non-finite timestamps or positions")
        if len(times) >= 2:
            steps = np.diff(times)
            if np.any(steps <= 0):
                raise TrajectoryError(f"timestamps of {self.id!r} are not strictly increasing")
            if np.any(np.abs(steps - self.dt) > _TIME_TOL):
                raise TrajectoryError(f"timestamps of {self.id!r} deviate from dt={self.dt}")
        times.setflags(write=False)
        xy.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def duration(self) -> float:
        """Elapsed seconds between first and last sample (0 if < 2 points)."""
        return float(self.times[-1] - self.times[0]) if len(self) >= 2 else 0.0

    @property
    def points(self) -> np.ndarray:
        """(n, 3) array of rows (t, x, y)."""
        return np.column_stack((self.times, self.xy))

    @classmethod
    def from_points(cls, id: str, dt: float, points) -> "Trajectory":
        pts = np.asarray(points if len(points) else np.empty((0, 3)), dtype=float)  # JSON [] is the zero-point trajectory
        if pts.shape[1:] != (3,):
            raise ValueError(f"points must be rows (t, x, y), got shape {pts.shape}")
        return cls(id=id, dt=dt, times=pts[:, 0], xy=pts[:, 1:])


@dataclass(eq=False)
class Dataset:
    """A bag of trajectories sharing one sampling interval."""

    trajectories: list

    def __post_init__(self):
        dts = {t.dt for t in self.trajectories}
        if len(dts) > 1:
            raise TrajectoryError(f"trajectories mix sampling intervals: {sorted(dts)}")

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    @property
    def dt(self) -> float:
        if not self.trajectories:
            raise TrajectoryError("empty dataset has no dt")
        return self.trajectories[0].dt


def velocities(traj: Trajectory) -> np.ndarray:
    """Forward differences: (n-1, 4) rows ``(x, y, vx, vy)``, the velocity at point k ``(p[k+1] - p[k]) / dt``."""
    if len(traj) < 2:
        raise TrajectoryError(f"{traj.id!r} has fewer than 2 points, no velocities")
    return velocity_stack(traj.xy, (0, len(traj)), [traj.dt])[0]


def velocity_stack(xy, offsets, dts) -> tuple[np.ndarray, np.ndarray]:
    """:func:`velocities` of trajectories stacked in ``xy``, trajectory ``t`` at ``offsets[t]:offsets[t + 1]``.

    Trajectory ``t`` is sampled every ``dts[t]``, and its rows are ``rows[row_offsets[t]:row_offsets[t + 1]]``
    of the returned ``(rows, row_offsets)``. The pairs that join two trajectories are dropped.
    """
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    rows = np.hstack((xy[:-1], np.diff(xy, axis=0) / np.asarray(dts)[owner[:-1], None]))
    counts = np.maximum(np.diff(offsets) - 1, 0)
    return rows[owner[:-1] == owner[1:]], np.concatenate(([0], np.cumsum(counts)))


def split_horizon(traj: Trajectory, t_obs: float, t_pred: float) -> tuple[Trajectory, Trajectory]:
    """Split into the first ``t_obs`` seconds and the following ``t_pred`` seconds."""
    n_obs = int(round(t_obs / traj.dt))
    n_pred = int(round(t_pred / traj.dt))
    if n_obs + n_pred > len(traj):
        raise TrajectoryError(
            f"{traj.id!r} has {len(traj)} points, needs {n_obs + n_pred} "
            f"for t_obs={t_obs}s + t_pred={t_pred}s at dt={traj.dt}s"
        )
    observed = Trajectory(
        id=traj.id, dt=traj.dt, times=traj.times[:n_obs], xy=traj.xy[:n_obs], intent=traj.intent
    )
    future = Trajectory(
        id=traj.id,
        dt=traj.dt,
        times=traj.times[n_obs : n_obs + n_pred],
        xy=traj.xy[n_obs : n_obs + n_pred],
        intent=traj.intent,
    )
    return observed, future


def load_dataset(path) -> Dataset:
    """Read a JSON-lines dataset file of one ``dt``; errors name ``path:line``, and ``sqrt(float max) / 4`` bounds coordinates."""
    trajectories = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                traj = Trajectory.from_points(rec["id"], rec["dt"], rec["points"])
            except TrajectoryError as exc:
                raise TrajectoryError(f"{path}:{lineno}: {exc}") from exc
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad trajectory record: {exc}") from exc
            # Below the bound, the metrics' squared differences and dot products stay finite.
            if not np.abs(traj.xy).max(initial=0.0) <= _MAX_ROOT / 4:
                raise TrajectoryError(f"{path}:{lineno}: {traj.id!r} has a coordinate beyond ±{_MAX_ROOT / 4:.4g}")
            if trajectories and traj.dt != trajectories[0].dt:
                raise TrajectoryError(
                    f"{path}:{lineno}: {traj.id!r} is sampled at dt={traj.dt}, the first record at dt={trajectories[0].dt}"
                )
            trajectories.append(traj)
    return Dataset(trajectories=trajectories)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset as JSON lines."""
    with open(path, "w") as fh:
        for traj in dataset:
            rec = {"id": traj.id, "dt": traj.dt, "points": traj.points.tolist()}
            fh.write(json.dumps(rec) + "\n")
