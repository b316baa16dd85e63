"""The transferable prediction pipeline (TASNSC) and its no-transform baseline.

Training maps all trajectories into the curbside frame of their
intersection, learns a motion-primitive dictionary there, segments the
trajectories, counts atom-pair transitions and fits one GP flow field per
observed transition. Prediction maps an observed trajectory into the *test*
intersection's curbside frame, ranks the patterns by likelihood, integrates
the top flow fields forward and maps the rollouts back into the test
intersection's local frame.

Baseline mode (``mode="baseline"``) runs the identical pipeline with the
identity frame substituted for both intersections, i.e. classic
local-frame learning with no transfer.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .geometry import (
    CurbsideFrame,
    _check_keys,
    frame_from_config,
    frame_to_config,
    from_curbside,
    identity_frame,
    transform_trajectory,
)
from .gp import GPModel, Kernel, MotionPattern, pattern_log_likelihood, posterior
from .sparse_coding import (
    DegenerateMotionError,
    Dictionary,
    GridSpec,
    build_transitions,
    featurize,
    learn_dictionary,
    segment,
)
from .trajectory import Dataset, Trajectory, TrajectoryError, velocities

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


def _fit_grid(trajectories, cell: float) -> GridSpec:
    stacks = [t.xy for t in trajectories if len(t)]
    if not stacks:
        raise PipelineError("no trajectory points to fit a grid to")
    xy = np.vstack(stacks)
    lo = np.floor((xy.min(axis=0) - cell) / cell) * cell
    hi = np.ceil((xy.max(axis=0) + cell) / cell) * cell
    return GridSpec(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1], cell=cell)


def _check_dt(dt: float, config: PipelineConfig, what: str) -> None:
    if abs(dt - config.dt) > 1e-9:
        raise PipelineError(f"{what} is sampled at dt={dt}s, the pipeline expects dt={config.dt}s")


def _effective_frame(frame: CurbsideFrame, mode: str) -> CurbsideFrame:
    return frame if mode == "tasnsc" else identity_frame()


def _transition_blocks(traj: Trajectory, segments: list) -> list:
    """(i, j, velocity block) per adjacent segment pair; self pair if single."""
    vel = velocities(traj)
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
    in the same local coordinates as the data.
    """
    config = config if config is not None else PipelineConfig()
    if len(dataset) < 2:
        raise PipelineError(f"training needs at least 2 trajectories, got {len(dataset)}")
    _check_dt(dataset.dt, config, "training data")
    eff = _effective_frame(frame, config.mode)
    curbside = [transform_trajectory(eff, t) for t in dataset]
    grid = config.grid if config.grid is not None else _fit_grid(curbside, config.grid_cell)

    features, kept = [], []
    for traj in curbside:
        try:
            features.append(featurize(traj, grid))
        except (DegenerateMotionError, TrajectoryError):
            continue
        kept.append(traj)
    if len(kept) < 2:
        raise PipelineError("fewer than 2 trajectories survived featurization")

    dictionary, codes = learn_dictionary(
        np.stack(features), config.k_atoms, config.sparsity, config.iters, config.seed
    )
    seglists = [segment(t, dictionary, grid, config.min_segment) for t in kept]
    transitions = build_transitions(seglists, config.k_atoms)

    blocks: dict = {}
    for traj, segs in zip(kept, seglists):
        for i, j, block in _transition_blocks(traj, segs):
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
    step makes one posterior query per pattern over its live candidates; a
    candidate that leaves the box holds its position and step variance
    from then on. Returns points (C, n_steps, 2) and step variances
    (C, n_steps).
    """
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
            # var_x + var_y: both velocity components share one variance.
            step_var[sel] = 2.0 * var
        alive &= (box[0] <= p[:, 0]) & (p[:, 0] <= box[1]) & (box[2] <= p[:, 1]) & (p[:, 1] <= box[3])
        points[:, k] = p
        variances[:, k] = step_var
    return points, variances


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
    is the one it would get alone; the batch shares the GP work, with one
    scoring query per pattern and one rollout query per pattern and step.
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
    obs_curb = [transform_trajectory(eff, observed) for observed in observations]
    samples = [velocities(o) for o in obs_curb]
    stacked = np.vstack(samples)
    counts = [len(s) for s in samples]

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
    start = np.repeat([o.xy[-1] for o in obs_curb], m, axis=0)
    points, variances = _rollout(model.patterns, which, start, cfg.dt, n_steps, _guard_box(model.grid))

    psets = []
    for j, (observed, curb) in enumerate(zip(observations, obs_curb)):
        times = curb.times[-1] + cfg.dt * np.arange(1, n_steps + 1)
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
