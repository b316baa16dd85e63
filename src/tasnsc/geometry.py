"""Curbside coordinate frames and the affine map into contravariant components.

A curbside frame sits at an intersection corner with its two axes running
along the intersecting curbs. The curbs meet at an angle ``alpha`` which is
generally not 90 degrees, so the frame is a skewed (oblique) basis. A point
is expressed in that frame by its *contravariant* components ``(x', y')``,
the unique coefficients with ``x'*e1 + y'*e2`` equal to the displacement
from the corner.

The map from an orthogonal local frame into these components is affine: a
rigid motion that moves the corner to the origin and aligns ``e1`` with +x,
followed by the constant shear/scale matrix

    [[1, -1/tan(alpha)],
     [0,  1/sin(alpha)]]

which collapses to the identity when the curbs are orthogonal. Affinity is
what makes motion primitives learned at one intersection reusable at
another: collinearity, parallelism and distance ratios survive the map.
"""

import json
from dataclasses import dataclass

import numpy as np

from .trajectory import Trajectory, TrajectoryError

__all__ = [
    "DegenerateFrameError",
    "CurbsideFrame",
    "AffineMap2D",
    "frame_from_curbs",
    "identity_frame",
    "curbside_transform",
    "to_curbside",
    "from_curbside",
    "curbside_stack",
    "transform_trajectory",
    "load_frame",
    "frame_from_config",
    "frame_to_config",
]

_MIN_DIR_NORM = 1e-9
_MIN_SIN_ALPHA = 1e-6


class DegenerateFrameError(ValueError):
    """Raised when curb directions are too short or (anti)parallel."""


def _as_point(p) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-D point, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class CurbsideFrame:
    """Intersection corner plus unit vectors along the two curbs.

    ``origin``, ``e1`` and ``e2`` are expressed in the local frame of the
    intersection. The axes must not be (anti)parallel; the curb angle
    ``alpha`` is derived from them.
    """

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        for name in ("origin", "e1", "e2"):
            v = _as_point(getattr(self, name)).copy()
            if not np.all(np.isfinite(v)):
                raise DegenerateFrameError(f"frame {name} must be finite, got {v}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if abs(np.linalg.norm(self.e1) - 1.0) > 1e-12 or abs(np.linalg.norm(self.e2) - 1.0) > 1e-12:
            raise DegenerateFrameError("curb axes must be unit vectors")
        if np.sqrt(max(0.0, 1.0 - float(self.e1 @ self.e2) ** 2)) < _MIN_SIN_ALPHA:
            raise DegenerateFrameError("curbs are parallel or antiparallel")

    @property
    def alpha(self) -> float:
        """The curb angle ``arccos(e1 . e2)`` in radians, strictly inside (0, pi)."""
        return float(np.arccos(np.clip(self.e1 @ self.e2, -1.0, 1.0)))

    @property
    def basis(self) -> np.ndarray:
        """2x2 matrix with e1 and e2 as columns."""
        return np.column_stack((self.e1, self.e2))


@dataclass(frozen=True, eq=False)
class AffineMap2D:
    """An invertible affine map ``p -> linear @ p + translation``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        if lin.shape != (2, 2) or tr.shape != (2,):
            raise ValueError("linear must be 2x2 and translation length 2")
        if abs(np.linalg.det(lin)) <= 1e-12:
            raise ValueError("affine map is not invertible")
        lin = lin.copy()
        tr = tr.copy()
        lin.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    def apply(self, points) -> np.ndarray:
        """Apply to one point (2,) or a batch (n, 2)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.linear.T + self.translation


def frame_from_curbs(origin, dir1, dir2) -> CurbsideFrame:
    """Build a curbside frame from the corner point and two curb directions.

    Directions need not be normalized. Raises :class:`DegenerateFrameError`
    if the origin is not finite, either direction is near zero or not
    finite, or the curbs are (anti)parallel.
    """
    origin = _as_point(origin)
    d1 = _as_point(dir1)
    d2 = _as_point(dir2)
    with np.errstate(over="ignore"):  # a length that overflows is rejected below
        n1 = np.linalg.norm(d1)
        n2 = np.linalg.norm(d2)
    if not (_MIN_DIR_NORM <= n1 < np.inf and _MIN_DIR_NORM <= n2 < np.inf):
        raise DegenerateFrameError("curb direction has near-zero or non-finite length")
    return CurbsideFrame(origin=origin, e1=d1 / n1, e2=d2 / n2)


def identity_frame() -> CurbsideFrame:
    """Orthogonal frame at the origin with axes along +x and +y."""
    return frame_from_curbs((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def curbside_transform(frame: CurbsideFrame) -> AffineMap2D:
    """The full affine map from local coordinates to contravariant components.

    It is the basis solve of :func:`to_curbside` written as a matrix: the
    linear part is the inverse of the curb basis, and the translation is
    the contravariant image of the local origin. Geometrically, that is the
    rigid motion and skew matrix of the module docstring, composed.
    """
    return AffineMap2D(np.linalg.solve(frame.basis, np.eye(2)), to_curbside(frame, np.zeros(2)))


def to_curbside(frame: CurbsideFrame, p) -> np.ndarray:
    """Contravariant components of point(s) ``p`` in the curbside frame.

    Returns ``(x', y')`` with ``x'*e1 + y'*e2 = p - origin``. Accepts a
    single point (2,) or a batch (n, 2). Computed by solving the 2x2
    linear system in the curb basis, which is valid for every quadrant.
    """
    pts = np.asarray(p, dtype=float)
    disp = pts - frame.origin
    return np.linalg.solve(frame.basis, disp.T).T


def from_curbside(frame: CurbsideFrame, p) -> np.ndarray:
    """Inverse of :func:`to_curbside`: contravariant components to local point(s)."""
    comps = np.asarray(p, dtype=float)
    return comps @ frame.basis.T + frame.origin


def curbside_stack(frame: CurbsideFrame, trajectories) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``trajectories`` stacked and mapped into the curbside frame in one call.

    Returns ``(xy, offsets)``: trajectory ``t`` holds the rows
    ``offsets[t]:offsets[t + 1]`` of the (N, 2) array ``xy``. Each point
    gets the bits it gets in a map of its trajectory alone. Raises
    :class:`TrajectoryError` naming the first trajectory with a point that
    maps to a non-finite value.
    """
    offsets = np.concatenate(([0], np.cumsum([len(t) for t in trajectories])))
    xy = to_curbside(frame, np.vstack([t.xy for t in trajectories]))
    for t in np.flatnonzero(np.diff(offsets) == 1):
        # LAPACK solves a lone column on another path, which can round
        # differently; a one-point trajectory is mapped alone.
        xy[offsets[t]] = to_curbside(frame, trajectories[t].xy)
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        bad = trajectories[np.searchsorted(offsets, np.argmin(finite), side="right") - 1]
        raise TrajectoryError(f"{bad.id!r} has positions that the curbside map sends to non-finite values")
    return xy, offsets


def transform_trajectory(frame: CurbsideFrame, traj: Trajectory) -> Trajectory:
    """Map every position of ``traj`` into the curbside frame; the one-trajectory case of :func:`curbside_stack`."""
    xy, _ = curbside_stack(frame, [traj])
    return Trajectory(id=traj.id, dt=traj.dt, times=traj.times, xy=xy, intent=traj.intent)


def _check_keys(doc, keys, what: str, partial: bool = False) -> dict:
    """``doc`` if it is a JSON object holding only ``keys``, and every one unless ``partial``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    missing = [] if partial else [k for k in keys if k not in doc]
    if unknown or missing:
        raise ValueError(f"{what}: unknown keys {unknown}, missing keys {missing}")
    return doc


_FRAME_KEYS = ("origin", "curb1", "curb2")


def frame_from_config(cfg: dict) -> CurbsideFrame:
    """Frame from ``{"origin": [x, y], "curb1": [dx, dy], "curb2": [dx, dy]}``, exactly those keys."""
    cfg = _check_keys(cfg, _FRAME_KEYS, "frame config")
    return frame_from_curbs(*(cfg[k] for k in _FRAME_KEYS))


def load_frame(path) -> CurbsideFrame:
    """Read a frame config file (see :func:`frame_from_config`)."""
    with open(path) as fh:
        return frame_from_config(json.load(fh))


def frame_to_config(frame: CurbsideFrame) -> dict:
    """Frame as a JSON-ready dict. The angle is derived on load, never stored."""
    return dict(zip(_FRAME_KEYS, (v.tolist() for v in (frame.origin, frame.e1, frame.e2))))
