"""Parametric synthetic intersections and pedestrian trajectories.

A scene is one intersection corner: two curbs meeting at angle ``alpha``,
a sidewalk band of width ``sidewalk_offset``, and a mix of pedestrian
intents. Walkers approach the corner along one sidewalk and then either

* ``straight`` - keep going, crossing the street ahead,
* ``left``     - turn onto the other sidewalk and stay on it,
* ``right``    - turn the other way, crossing the side street.

Intent paths are laid out in contravariant curbside coordinates and mapped
into the scene's local frame, so two scenes with different curb angles
produce geometrically corresponding trajectories. Corners are smoothed
with a short quadratic blend, progress along the path is sampled at a
per-step random walking speed, and every point gets independent Gaussian
jitter. Generation is deterministic given the scene seed, with one derived
seed per trajectory.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .geometry import CurbsideFrame, _check_keys, frame_from_curbs, from_curbside
from .gp import _MAX_ROOT
from .trajectory import Dataset, Trajectory

__all__ = ["INTENTS", "SceneSpec", "generate", "scene_a", "scene_b", "load_scene", "scene_to_config"]

INTENTS = ("straight", "left", "right")

_DENSE_STEP = 0.02  # m, resolution of the arc-length lookup table
# Most points an intent path's lookup table, or a walk's speed draws, may
# hold: 2**20 points at 2 cm cover ≈ 21 km, and the canonical paths need ≈ 1000.
_MAX_PATH_POINTS = 2**20
_MIN_SPEED = 0.1  # m/s, floor under the per-step speed draw


@dataclass(frozen=True)
class SceneSpec:
    """Geometry, intent mix and noise model of one synthetic intersection."""

    corner: tuple = (0.0, 0.0)
    heading: float = 0.0  # angle of the first curb in the local frame, radians
    alpha: float = math.pi / 2  # curb angle, radians
    sidewalk_offset: float = 1.5
    approach_len: float = 2.0
    exit_len: float = 14.0
    blend_len: float = 2.0
    intent_mix: dict = field(
        default_factory=lambda: {"straight": 0.4, "left": 0.3, "right": 0.3}
    )
    speed_mean: float = 1.4
    speed_sd: float = 0.2
    noise_sd: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.speed_mean and 0 <= self.speed_sd and _speeds(self)[1] <= _MAX_ROOT / 4):
            raise ValueError(
                f"need speed_mean > 0, speed_sd >= 0 and speed_mean + 3 * speed_sd <= {_MAX_ROOT / 4:.4g} m/s"
            )
        if not all(0 < x < math.inf for x in (self.sidewalk_offset, self.approach_len, self.exit_len)):
            raise ValueError("sidewalk offset, approach and exit lengths must be positive and finite")
        if not (0 <= self.blend_len < math.inf and 0 <= self.noise_sd < math.inf):
            raise ValueError("blend length and noise sd must be nonnegative and finite")
        if not isinstance(self.intent_mix, dict):
            raise ValueError(f"intent mix must map intents to proportions, got {self.intent_mix!r}")
        unknown = set(self.intent_mix) - set(INTENTS)
        if unknown:
            raise ValueError(f"unknown intents in mix: {sorted(unknown)}")
        total = sum(self.intent_mix.values())
        if not (abs(total - 1.0) <= 1e-9 and all(p >= 0 for p in self.intent_mix.values())):
            raise ValueError(f"intent proportions must be nonnegative and sum to 1, got {total}")
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"scene seed must be a nonnegative integer, got {seed!r}")
        _intent_paths(self, INTENTS)  # also builds the frame, which checks the corner and heading

    def frame(self) -> CurbsideFrame:
        """Curbside frame of the scene in its local coordinates."""
        e1 = (math.cos(self.heading), math.sin(self.heading))
        e2 = (math.cos(self.heading + self.alpha), math.sin(self.heading + self.alpha))
        return frame_from_curbs(self.corner, e1, e2)


def _intent_waypoints(scene: SceneSpec, intent: str) -> np.ndarray:
    """Piecewise-linear intent path in contravariant curbside coordinates.

    The walker comes down the second curb's sidewalk toward the corner;
    exits keep the sidewalk offset from the curb they run along.
    """
    o = scene.sidewalk_offset
    start = (o, o + scene.approach_len)
    vertex = (o, o)
    if intent == "straight":
        return np.array([start, (o, o - scene.exit_len)])
    if intent == "left":
        return np.array([start, vertex, (o + scene.exit_len, o)])
    if intent == "right":
        return np.array([start, vertex, (o - scene.exit_len, o)])
    raise ValueError(f"unknown intent {intent!r}")


def _dense_path(waypoints: np.ndarray, blend_len: float) -> tuple[np.ndarray, np.ndarray]:
    """Arc-length lookup table (s, points) for a corner-blended polyline."""

    def line(p, q):
        n = max(2, int(np.ceil(np.linalg.norm(q - p) / _DENSE_STEP)))
        t = np.linspace(0.0, 1.0, n)[:, None]
        return p + t * (q - p)

    if len(waypoints) == 2:
        pts = line(waypoints[0], waypoints[1])
    else:
        w0, w1, w2 = waypoints
        la, lb = np.linalg.norm(w1 - w0), np.linalg.norm(w2 - w1)
        h = min(blend_len / 2.0, 0.45 * la, 0.45 * lb)
        q0 = w1 + (w0 - w1) * (h / la)
        q1 = w1 + (w2 - w1) * (h / lb)
        t = np.linspace(0.0, 1.0, 80)[:, None]
        bez = (1 - t) ** 2 * q0 + 2 * t * (1 - t) * w1 + t**2 * q1
        pts = np.vstack((line(w0, q0)[:-1], bez, line(q1, w2)[1:]))

    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    return s, pts


def _intent_paths(scene: SceneSpec, names) -> dict:
    """Arc-length tables (s, points) of the named intent paths in the scene's local frame.

    Raises :class:`ValueError` if a path has a point or a length that is
    not finite, or a leg that rounding shrinks to zero length: its samples
    could not be spaced along it. A path whose table would hold more than
    ``_MAX_PATH_POINTS`` points raises before the table is built.
    """
    frame = scene.frame()
    paths = {}
    # Overflow to inf or NaN is checked for here, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for name in names:
            # A point that is not finite makes a leg or the arc length so too.
            waypoints = from_curbside(frame, _intent_waypoints(scene, name))
            legs = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
            ok = np.all((0 < legs) & (legs < np.inf))
            if ok and not (length := float(legs.sum())) <= _MAX_PATH_POINTS * _DENSE_STEP:
                raise ValueError(
                    f"the scene's {name} path is {length:.4g} m long, more than the "
                    f"{_MAX_PATH_POINTS * _DENSE_STEP:.4g} m that {_MAX_PATH_POINTS} lookup points, one per "
                    f"{_DENSE_STEP} m, cover"
                )
            if ok:
                paths[name] = _dense_path(waypoints, scene.blend_len)
                ok = paths[name][0][-1] < np.inf
            if not ok:
                raise ValueError(f"the scene's {name} path has a non-finite point or length, or a zero-length leg")
    return paths


def _speeds(scene: SceneSpec) -> tuple:
    """The (slowest, fastest) walking speed a step draws, m/s."""
    return max(_MIN_SPEED, scene.speed_mean - 3.0 * scene.speed_sd), scene.speed_mean + 3.0 * scene.speed_sd


def _walk(rng: np.random.Generator, scene: SceneSpec, s_grid: np.ndarray, pts: np.ndarray, dt: float) -> np.ndarray:
    """Sample along-path positions at a per-step random walking speed."""
    total = s_grid[-1]
    lo, hi = _speeds(scene)
    # Each step covers at least lo * dt, so this many draws pass the end.
    # The walk stops at the first station past it; the generator is then
    # rewound and advanced by exactly the draws used, as one draw per step
    # would leave it for the noise that follows.
    state = rng.bit_generator.state
    draws = rng.normal(scene.speed_mean, scene.speed_sd, int(total / (lo * dt)) + 2)
    speeds = np.minimum(np.maximum(draws, lo), hi)
    s = np.cumsum(speeds * dt)  # sums in step order, as a running total does
    used = int(np.argmax(s > total)) + 1
    rng.bit_generator.state = state
    rng.normal(scene.speed_mean, scene.speed_sd, used)
    stations = np.concatenate(([0.0], s[: used - 1]))
    x = np.interp(stations, s_grid, pts[:, 0])
    y = np.interp(stations, s_grid, pts[:, 1])
    return np.column_stack((x, y))


def generate(scene: SceneSpec, n: int, dt: float = 0.5, tag: str = "train") -> Dataset:
    """Generate ``n`` trajectories from the scene's intent mix.

    Deterministic given ``scene.seed``; trajectory ids carry the sampled
    intent (also attached as the in-memory ``intent`` tag).
    """
    if n < 1:
        raise ValueError(f"need at least one trajectory, got {n}")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    names = [name for name in INTENTS if scene.intent_mix.get(name, 0.0) > 0.0]
    probs = np.array([scene.intent_mix[name] for name in names])
    probs = probs / probs.sum()

    seeds = np.random.SeedSequence(scene.seed).spawn(n + 1)
    intents = np.random.default_rng(seeds[0]).choice(names, size=n, p=probs)

    paths = _intent_paths(scene, names)
    slowest, lengths = _speeds(scene)[0], [s[-1] for s, _ in paths.values()]
    if not slowest * dt < min(lengths):
        raise ValueError(
            f"dt={dt} s is too long: a slowest step, {slowest:.4g} m/s, covers the {min(lengths):.4g} m intent path"
        )
    # _walk draws longest / (slowest * dt) + 2 speeds; no division, as slowest * dt may underflow.
    if max(lengths) > (_MAX_PATH_POINTS - 2) * slowest * dt:
        raise ValueError(
            f"dt={dt} s is too short: walking the {max(lengths):.4g} m intent path takes over {_MAX_PATH_POINTS} steps"
        )
    trajectories = []
    for i, intent in enumerate(intents):
        rng = np.random.default_rng(seeds[i + 1])
        xy = _walk(rng, scene, *paths[intent], dt)
        if scene.noise_sd > 0:
            xy = xy + rng.normal(0.0, scene.noise_sd, xy.shape)
        times = dt * np.arange(len(xy))
        trajectories.append(
            Trajectory(id=f"{tag}-{i:04d}-{intent}", dt=dt, times=times, xy=xy, intent=str(intent))
        )
    return Dataset(trajectories=trajectories)


def scene_a(seed: int = 7) -> SceneSpec:
    """Canonical orthogonal-curb scene (alpha = 90 degrees, tilted local frame)."""
    return SceneSpec(corner=(0.0, 0.0), heading=0.7, alpha=math.pi / 2, seed=seed)


def scene_b(seed: int = 11) -> SceneSpec:
    """Canonical skewed-curb scene (alpha = 60 degrees, its own local pose)."""
    return SceneSpec(corner=(3.0, -2.0), heading=1.9, alpha=math.pi / 3, seed=seed)


def load_scene(path) -> SceneSpec:
    """Read a scene config JSON; missing keys take their defaults, unknown keys are rejected."""
    with open(path) as fh:
        cfg = _check_keys(json.load(fh), SceneSpec.__dataclass_fields__, "scene config", partial=True)
    if "corner" in cfg:
        cfg["corner"] = tuple(cfg["corner"])
    return SceneSpec(**cfg)


def scene_to_config(scene: SceneSpec) -> dict:
    """Scene as a JSON-ready dict."""
    return asdict(scene)


def with_seed(scene: SceneSpec, seed: int) -> SceneSpec:
    """Copy of the scene with a different seed."""
    return replace(scene, seed=seed)
