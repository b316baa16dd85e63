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
A frame builds the map and its inverse once; every conversion applies one
row by row, so a point maps to the same bits alone as in any batch.
"""

import json
from dataclasses import dataclass, field

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
class AffineMap2D:
    """An invertible affine map ``p -> linear @ p + translation``."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin, tr = np.array(self.linear, dtype=float), np.array(self.translation, dtype=float)
        if lin.shape != (2, 2) or tr.shape != (2,):
            raise ValueError("linear must be 2x2 and translation length 2")
        if not abs(lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]) > 1e-12:
            raise ValueError("affine map is not invertible")
        for name, value in (("linear", lin), ("translation", tr)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def apply(self, points) -> np.ndarray:
        """``linear @ q + translation`` for each point ``q`` along the last axis: one (2,) or a batch (n, 2).

        Two products and two sums per output coordinate, each one ufunc over the batch, so a row
        gets the same bits in any batch. Overflow gives inf or NaN unwarned; callers check for it.
        """
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1:] != (2,):
            raise ValueError(f"expected 2-D points along the last axis, got shape {pts.shape}")
        x, y = pts[..., 0], pts[..., 1]
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([a * x + b * y + t for (a, b), t in zip(self.linear, self.translation)], axis=-1)


@dataclass(frozen=True, eq=False)
class CurbsideFrame:
    """Intersection corner plus unit vectors along the two curbs.

    ``origin``, ``e1`` and ``e2`` are expressed in the local frame of the
    intersection. The axes must not be (anti)parallel. Derived from them are
    the curb angle ``alpha`` and two maps: ``to_curb``, the curb basis
    inverted by Cramer's rule, and its inverse ``to_local``.
    """

    origin: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    to_curb: AffineMap2D = field(init=False, repr=False)
    to_local: AffineMap2D = field(init=False, repr=False)

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
        (a, c), (b, d), (ox, oy) = self.e1.tolist(), self.e2.tolist(), self.origin.tolist()
        det = a * d - b * c
        linear = ((d / det, -b / det), (-c / det, a / det))
        object.__setattr__(self, "to_curb", AffineMap2D(linear, [-(u * ox + v * oy) for u, v in linear]))
        object.__setattr__(self, "to_local", AffineMap2D(np.column_stack((self.e1, self.e2)), self.origin))

    @property
    def alpha(self) -> float:
        """The curb angle ``arccos(e1 . e2)`` in radians, strictly inside (0, pi)."""
        return float(np.arccos(np.clip(self.e1 @ self.e2, -1.0, 1.0)))


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
    """The full affine map from local coordinates to contravariant components: ``frame.to_curb``.

    It holds the inverse of the curb basis and the contravariant image of the local origin, the
    map that :func:`to_curbside` applies. Geometrically, that is the rigid motion and skew matrix
    of the module docstring, composed.
    """
    return frame.to_curb


def to_curbside(frame: CurbsideFrame, p) -> np.ndarray:
    """Contravariant components of point(s) ``p`` in the curbside frame.

    Returns ``(x', y')`` with ``x'*e1 + y'*e2 = p - origin``. Accepts a
    single point (2,) or a batch (n, 2). The curb basis is inverted in
    closed form, which is valid for every quadrant.
    """
    return frame.to_curb.apply(p)


def from_curbside(frame: CurbsideFrame, p) -> np.ndarray:
    """Inverse of :func:`to_curbside`: contravariant components to local point(s), along the last axis of ``p``."""
    return frame.to_local.apply(p)


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
