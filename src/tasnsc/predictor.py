"""The transferable prediction pipeline (TASNSC) and its no-transform baseline.

Training maps all trajectories into the curbside frame of their
intersection, learns a motion-primitive dictionary there, segments the
trajectories, counts atom-pair transitions and fits one GP flow field per
observed transition. Its front end runs once over all trajectories,
stacked with offsets: one curbside map, one pass of point-pair votes, one
feature matrix and one segmentation pass. Prediction maps the observed
trajectories into the *test* intersection's curbside frame through the
same stacked map (:func:`~tasnsc.geometry.curbside_stack`), ranks the
patterns by likelihood, integrates the top flow fields forward and maps the
rollouts back into the test intersection's local frame.

Baseline mode (``mode="baseline"``) runs the identical pipeline with the
identity frame substituted for both intersections, i.e. classic
local-frame learning with no transfer.
"""

import json
import logging
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (
    CurbsideFrame,
    _check_keys,
    curbside_stack,
    frame_from_config,
    frame_to_config,
    from_curbside,
    identity_frame,
)
from .gp import GPModel, Kernel, MotionPattern, pattern_log_likelihood, posterior, posterior_mean
from .sparse_coding import (
    Dictionary,
    GridSpec,
    build_transitions,
    featurize_stack,
    learn_dictionary,
    pair_votes,
    segment_stack,
)
from .trajectory import Dataset, Trajectory, TrajectoryError, velocity_stack
# ``featurize``, ``segment``, ``transform_trajectory`` and ``velocities`` are
# not called here; the benchmark's tracer wraps them as attributes of this
# module.
from .geometry import transform_trajectory  # noqa: F401
from .sparse_coding import featurize, segment  # noqa: F401
from .trajectory import velocities  # noqa: F401

__all__ = [
    "MODEL_VERSION",
    "PipelineError",
    "PipelineConfig",
    "TasnscModel",
    "PredictedCandidate",
    "PredictionSet",
    "train",
    "predict",
    "predict_many",
    "save_model",
    "load_model",
]

logger = logging.getLogger(__name__)

MODEL_VERSION = 1

MODES = ("tasnsc", "baseline")

_INT_FIELDS = ("k_atoms", "iters", "min_segment", "top_m", "max_gp_points", "seed")


class PipelineError(RuntimeError):
    """Raised when training or prediction cannot proceed on the given data."""


@dataclass(frozen=True)
class PipelineConfig:
    """All tunable pipeline parameters with their defaults."""

    dt: float = 0.5
    t_obs: float = 2.5
    t_pred: float = 5.0
    k_atoms: int = 12
    sparsity: float = 0.1
    iters: int = 200
    grid_cell: float = 1.0
    min_segment: int = 3
    top_m: int = 3
    max_gp_points: int = 800
    # 0.15 m position jitter at dt=0.5 s puts ~0.4 m/s of noise on the
    # forward-difference velocities; the GP noise floor has to match it.
    kernel: Kernel = field(default_factory=lambda: Kernel(noise_sd=0.4))
    seed: int = 0
    mode: str = "tasnsc"
    grid: GridSpec | None = None  # None: fit bounds to the training data

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("dt", "t_pred", "grid_cell"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not (0 <= self.t_obs < np.inf and 0 <= self.sparsity < np.inf and self.iters >= 0):
            raise ValueError("t_obs, sparsity and iters must be nonnegative and finite")
        if self.top_m < 1 or self.k_atoms < 1 or self.min_segment < 1 or self.max_gp_points < 1:
            raise ValueError("top_m, k_atoms, min_segment and max_gp_points must be at least 1")
        for name in ("t_obs", "t_pred"):
            if not getattr(self, name) / self.dt < np.inf:
                raise ValueError(f"{name} / dt must be finite, got {getattr(self, name)} / {self.dt}")
        # The horizon is round(t_pred / dt) steps, which rounds 0.5 to 0.
        if round(self.t_pred / self.dt) < 1:
            raise ValueError(f"t_pred must be at least one step of dt, got {self.t_pred} / {self.dt}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Config from its JSON form: missing keys take their defaults, unknown keys are rejected."""
        d = dict(_check_keys(d, cls.__dataclass_fields__, "pipeline config", partial=True))
        if "kernel" in d:
            d["kernel"] = _record(Kernel, d["kernel"], "kernel")
        if d.get("grid") is not None:
            d["grid"] = _record(GridSpec, d["grid"], "grid")
        return cls(**d)


def _record(cls, doc, what: str):
    """A :class:`Kernel` or :class:`GridSpec` from a JSON object holding exactly its fields."""
    return cls(**_check_keys(doc, cls.__dataclass_fields__, what))


@dataclass(frozen=True, eq=False)
class TasnscModel:
    """Everything needed to predict: frame provenance, primitives, flow fields."""

    frame: CurbsideFrame
    grid: GridSpec
    dictionary: Dictionary
    transitions: np.ndarray
    patterns: list
    config: PipelineConfig
    final_objective: float

    def __post_init__(self):
        k = self.dictionary.k
        if self.dictionary.atoms.shape[1] != self.grid.dim:
            raise ValueError(
                f"dictionary atoms have dimension {self.dictionary.atoms.shape[1]}, "
                f"the grid has {self.grid.dim} features"
            )
        if self.transitions.shape != (k, k):
            raise ValueError(f"transitions have shape {self.transitions.shape}, expected ({k}, {k})")
        if not np.issubdtype(self.transitions.dtype, np.integer):
            raise ValueError(f"transitions must be integer counts, got {self.transitions.dtype}")
        pairs = [pat.atoms for pat in self.patterns]
        for i, j in pairs:
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(f"pattern {(i, j)} names an atom outside [0, {k})")
            if self.transitions[i, j] <= 0:
                raise ValueError(f"pattern {(i, j)} has no supporting transitions")
            if pairs.count((i, j)) > 1:
                raise ValueError(f"pattern {(i, j)} appears more than once")
        total = self.transitions.sum()
        for pat in self.patterns:
            # train writes exactly this value, and JSON round-trips it.
            want = float(self.transitions[pat.atoms] / total)
            if pat.prior_weight != want:
                raise ValueError(
                    f"pattern {pat.atoms} has prior weight {pat.prior_weight!r}, "
                    f"its transitions give {want!r}"
                )


@dataclass(frozen=True, eq=False)
class PredictedCandidate:
    """One rolled-out future with its normalized likelihood."""

    trajectory: Trajectory
    likelihood: float
    atoms: tuple
    step_variance: np.ndarray


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Candidate futures in the test intersection's local frame."""

    candidates: list

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("prediction set cannot be empty")
        weights = np.array([c.likelihood for c in self.candidates])
        if not np.all(np.isfinite(weights) & (weights >= 0)) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("candidate likelihoods must be finite, nonnegative and sum to 1")
        lengths = {len(c.trajectory) for c in self.candidates}
        if len(lengths) > 1:
            raise ValueError(f"candidates have mixed lengths: {sorted(lengths)}")

    def top(self) -> PredictedCandidate:
        """Highest-likelihood candidate (first on ties)."""
        return max(self.candidates, key=lambda c: c.likelihood)


def _fit_grid(xy: np.ndarray, cell: float) -> GridSpec:
    if not len(xy):
        raise PipelineError("no trajectory points to fit a grid to")
    lo = np.floor((xy.min(axis=0) - cell) / cell) * cell
    hi = np.ceil((xy.max(axis=0) + cell) / cell) * cell
    return GridSpec(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1], cell=cell)


def _check_dt(dt: float, config: PipelineConfig, what: str) -> None:
    if abs(dt - config.dt) > 1e-9:
        raise PipelineError(f"{what} is sampled at dt={dt}s, the pipeline expects dt={config.dt}s")


def _effective_frame(frame: CurbsideFrame, mode: str) -> CurbsideFrame:
    return frame if mode == "tasnsc" else identity_frame()


def _transition_blocks(vel: np.ndarray, segments: list) -> list:
    """(i, j, velocity block) per adjacent segment pair; self pair if single.

    ``vel`` holds the trajectory's (x, y, vx, vy) samples, one per point but the last.
    """
    if len(segments) == 1:
        s = segments[0]
        return [(s.atom, s.atom, vel[s.start : min(s.stop, len(vel))])]
    blocks = []
    for a, b in zip(segments[:-1], segments[1:]):
        block = vel[a.start : min(b.stop, len(vel))]
        if len(block):
            blocks.append((a.atom, b.atom, block))
    return blocks


def _subsample(samples: np.ndarray, cap: int) -> np.ndarray:
    if len(samples) <= cap:
        return samples
    idx = np.unique(np.round(np.linspace(0, len(samples) - 1, cap)).astype(int))
    return samples[idx]


def train(dataset: Dataset, frame: CurbsideFrame, config: PipelineConfig | None = None) -> TasnscModel:
    """Fit the full pipeline on a training dataset.

    ``frame`` is the curbside frame of the training intersection, expressed
    in the same local coordinates as the data. A trajectory with fewer than
    2 points or no motion is dropped after the grid is fit.
    """
    config = config if config is not None else PipelineConfig()
    if len(dataset) < 2:
        raise PipelineError(f"training needs at least 2 trajectories, got {len(dataset)}")
    _check_dt(dataset.dt, config, "training data")
    xy, offsets = curbside_stack(_effective_frame(frame, config.mode), dataset.trajectories)
    grid = config.grid if config.grid is not None else _fit_grid(xy, config.grid_cell)

    votes = pair_votes(xy, offsets, dataset.dt, grid)
    if votes.n_clipped:
        logger.warning("%d segment midpoints outside grid bounds were clipped", votes.n_clipped)
    features = featurize_stack(votes, grid.dim)
    kept = np.flatnonzero(features.any(axis=1))
    if len(kept) < 2:
        raise PipelineError("fewer than 2 trajectories survived featurization")

    dictionary, codes = learn_dictionary(
        features[kept], config.k_atoms, config.sparsity, config.iters, config.seed
    )
    del features  # (T, dim), the largest array of train until the GP fits
    seglists = segment_stack(votes, dictionary, config.min_segment, kept)
    transitions = build_transitions(seglists, config.k_atoms)

    samples, rows = velocity_stack(xy, offsets, [dataset.dt] * len(dataset))
    blocks: dict = {}
    for t, segs in zip(kept, seglists):
        for i, j, block in _transition_blocks(samples[rows[t] : rows[t + 1]], segs):
            blocks.setdefault((i, j), []).append(block)

    total = transitions.sum()
    patterns = []
    for (i, j) in sorted(blocks):
        samples = _subsample(np.vstack(blocks[(i, j)]), config.max_gp_points)
        flow = GPModel(samples[:, :2], samples[:, 2:], config.kernel)
        patterns.append(MotionPattern(atoms=(i, j), flow=flow, prior_weight=float(transitions[i, j] / total)))
    if not patterns:
        raise PipelineError("no motion patterns could be fit")

    return TasnscModel(
        frame=frame,
        grid=grid,
        dictionary=dictionary,
        transitions=transitions,
        patterns=patterns,
        config=config,
        final_objective=float(codes.objective[-1]) if len(codes.objective) else float("nan"),
    )


def _guard_box(grid: GridSpec) -> tuple:
    # Rollouts stopping box: the grid bounds scaled 3x about their center.
    cx, cy = 0.5 * (grid.x_min + grid.x_max), 0.5 * (grid.y_min + grid.y_max)
    hx, hy = 1.5 * (grid.x_max - grid.x_min), 1.5 * (grid.y_max - grid.y_min)
    return cx - hx, cx + hx, cy - hy, cy + hy


def _rollout(patterns: list, which: np.ndarray, start: np.ndarray, dt: float, n_steps: int, box: tuple):
    """Euler-integrate candidates along their patterns' posterior mean flows, together.

    Candidate ``c`` starts at ``start[c]`` on ``patterns[which[c]]``. Each
    step makes one posterior mean query per pattern over its live
    candidates; a candidate that leaves the box holds its position from
    then on. Step ``k``'s variance is the flow's at the point the step
    starts from, found after the loop with one posterior query per pattern
    over all its live steps; a held step repeats the last one. Returns
    points (C, n_steps, 2) and step variances (C, n_steps).
    """
    p = np.array(start, dtype=float)
    points = np.empty((len(p), n_steps, 2))
    starts = np.empty_like(points)
    live = np.empty((len(p), n_steps), dtype=bool)
    alive = np.ones(len(p), dtype=bool)
    for k in range(n_steps):
        starts[:, k] = p
        live[:, k] = alive
        for u in np.unique(which[alive]):
            sel = np.flatnonzero(alive & (which == u))
            p[sel] += dt * posterior_mean(patterns[u].flow, p[sel])
        alive &= (box[0] <= p[:, 0]) & (p[:, 0] <= box[1]) & (box[2] <= p[:, 1]) & (p[:, 1] <= box[3])
        points[:, k] = p

    step_var = np.empty(live.shape)
    for u in np.unique(which):
        sel = live & (which == u)[:, None]
        # var_x + var_y: both velocity components share one variance.
        step_var[sel] = 2.0 * posterior(patterns[u].flow, starts[sel])[1]
    # Every candidate is live at step 0, and ``live`` is a prefix of each row.
    last_live = live.sum(axis=1) - 1
    held = np.minimum(np.arange(n_steps), last_live[:, None])
    return points, np.take_along_axis(step_var, held, axis=1)


def predict(model: TasnscModel, test_frame: CurbsideFrame, observed: Trajectory) -> PredictionSet:
    """Predict candidate futures for one observation; see :func:`predict_many`."""
    return predict_many(model, test_frame, [observed])[0]


def predict_many(model: TasnscModel, test_frame: CurbsideFrame, observations) -> list:
    """Predict candidate futures for each observation in a test intersection.

    Returns one :class:`PredictionSet` per observation, in order: the top-M
    motion patterns by observation likelihood, each rolled out
    ``t_pred / dt`` Euler steps along its posterior mean flow and mapped
    back into the test intersection's local frame; candidate likelihoods
    are the softmax of the pattern log-likelihoods. Each observation's set
    is the one it would get alone, within 1e-12; the batch shares the GP
    work, with one scoring query per pattern, one rollout mean query per
    pattern and step, and one variance solve per rolled-out pattern.
    """
    if not model.patterns:
        raise PipelineError("model has no motion patterns")
    cfg = model.config
    for observed in observations:
        _check_dt(observed.dt, cfg, f"observation {observed.id!r}")
        if observed.duration + 1e-9 < 2 * cfg.dt:
            raise TrajectoryError(
                f"observation {observed.id!r} spans {observed.duration}s, needs at least {2 * cfg.dt}s"
            )
    if not observations:
        return []
    eff = _effective_frame(test_frame, cfg.mode)
    xy, offsets = curbside_stack(eff, observations)
    stacked, rows = velocity_stack(xy, offsets, [o.dt for o in observations])
    counts = np.diff(rows)

    # (patterns, observations): one scoring query per pattern for the batch.
    loglik = np.array([pattern_log_likelihood(p, stacked, counts) for p in model.patterns])
    order = np.argsort(-loglik, axis=0, kind="stable")[: min(cfg.top_m, len(loglik))]
    scores = np.take_along_axis(loglik, order, axis=0)
    weights = np.exp(scores - scores.max(axis=0))
    weights /= weights.sum(axis=0)

    n_steps = int(round(cfg.t_pred / cfg.dt))
    # Candidate c is rank c % M of observation c // M.
    m = len(order)
    which = order.T.ravel()
    start = np.repeat(xy[offsets[1:] - 1], m, axis=0)
    points, variances = _rollout(model.patterns, which, start, cfg.dt, n_steps, _guard_box(model.grid))

    psets = []
    for j, observed in enumerate(observations):
        times = observed.times[-1] + cfg.dt * np.arange(1, n_steps + 1)
        candidates = []
        for r in range(m):
            c = j * m + r
            pattern = model.patterns[which[c]]
            traj = Trajectory(
                id=f"{observed.id}#pattern-{pattern.atoms[0]}-{pattern.atoms[1]}",
                dt=cfg.dt,
                times=times,
                xy=from_curbside(eff, points[c]),
            )
            candidates.append(
                PredictedCandidate(
                    trajectory=traj,
                    likelihood=float(weights[r, j]),
                    atoms=pattern.atoms,
                    step_variance=variances[c],
                )
            )
        psets.append(PredictionSet(candidates=candidates))
    return psets


_MODEL_KEYS = (
    "version", "config", "frame", "grid", "dictionary", "transitions", "final_objective", "patterns"
)
_DICTIONARY_KEYS = ("k", "lambda", "seed", "atoms")
_PATTERN_KEYS = ("atoms", "prior_weight", "kernel", "inputs", "vx", "vy")


def _model_to_dict(model: TasnscModel) -> dict:
    return {
        "version": MODEL_VERSION,
        "config": model.config.to_dict(),
        "frame": frame_to_config(model.frame),
        "grid": asdict(model.grid),
        "dictionary": {
            "k": model.dictionary.k,
            "lambda": model.config.sparsity,
            "seed": model.config.seed,
            "atoms": model.dictionary.atoms.tolist(),
        },
        "transitions": model.transitions.tolist(),
        "final_objective": model.final_objective,
        "patterns": [
            {
                "atoms": list(p.atoms),
                "prior_weight": p.prior_weight,
                "kernel": asdict(p.flow.kernel),
                "inputs": p.flow.inputs.tolist(),
                "vx": p.flow.targets[:, 0].tolist(),
                "vy": p.flow.targets[:, 1].tolist(),
            }
            for p in model.patterns
        ],
    }


def save_model(model: TasnscModel, path) -> None:
    """Write the model as a single JSON document (version field mandatory)."""
    with open(path, "w") as fh:
        json.dump(_model_to_dict(model), fh)
        fh.write("\n")


def _dictionary(rec, config: PipelineConfig) -> Dictionary:
    rec = _check_keys(rec, _DICTIONARY_KEYS, "dictionary")
    dictionary = Dictionary(atoms=np.asarray(rec["atoms"], dtype=float))
    for key, want in (("k", dictionary.k), ("lambda", config.sparsity), ("seed", config.seed)):
        if rec[key] != want or isinstance(rec[key], bool):
            raise ValueError(f"dictionary {key} is {rec[key]!r}, expected {want!r}")
    return dictionary


def _pattern(rec) -> MotionPattern:
    rec = _check_keys(rec, _PATTERN_KEYS, "pattern")
    atoms = tuple(rec["atoms"]) if isinstance(rec["atoms"], list) else rec["atoms"]
    vx, vy = np.asarray(rec["vx"], dtype=float), np.asarray(rec["vy"], dtype=float)
    if vx.ndim != 1 or vx.shape != vy.shape:
        raise ValueError(f"pattern {atoms} has vx of shape {vx.shape} and vy of shape {vy.shape}")
    kernel = _record(Kernel, rec["kernel"], "pattern kernel")
    flow = GPModel(np.asarray(rec["inputs"], dtype=float), np.column_stack((vx, vy)), kernel)
    return MotionPattern(atoms=atoms, flow=flow, prior_weight=float(rec["prior_weight"]))


def load_model(path) -> TasnscModel:
    """Read a model file; GP factorizations are rebuilt from the stored data."""
    with open(path) as fh:
        doc = _check_keys(json.load(fh), _MODEL_KEYS, "model file")
    version = doc["version"]
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version!r} in {path}")
    config = PipelineConfig.from_dict(doc["config"])
    frame = frame_from_config(doc["frame"])
    grid = _record(GridSpec, doc["grid"], "grid")
    dictionary = _dictionary(doc["dictionary"], config)
    transitions = np.asarray(doc["transitions"])
    patterns = [_pattern(rec) for rec in doc["patterns"]]
    return TasnscModel(
        frame=frame,
        grid=grid,
        dictionary=dictionary,
        transitions=transitions,
        patterns=patterns,
        config=config,
        final_objective=float(doc["final_objective"]),
    )
