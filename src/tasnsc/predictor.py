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
from dataclasses import asdict, dataclass, field, replace

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
from .gp import (
    GPModel,
    Kernel,
    MotionPattern,
    PatternTable,
    log_likelihood_bounds,
    pattern_log_likelihood,
    posterior,
    posterior_mean,
)
from .sparse_coding import (
    Dictionary,
    GridSpec,
    build_transitions,
    featurize,
    learn_dictionary,
    pair_votes,
    segment,
    segment_pairs,
)
from .trajectory import Dataset, Trajectory, TrajectoryError, velocities
# ``transform_trajectory`` is not called here; the benchmark's tracer wraps
# it as an attribute of this module.
from .geometry import transform_trajectory  # noqa: F401

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

MODEL_VERSION = 5

MODES = ("tasnsc", "baseline")

_INT_FIELDS = ("k_atoms", "iters", "min_segment", "top_m", "max_gp_points", "seed")

# Most entries train's dense arrays may hold, 512 MiB of float64 each: the
# (trajectory, voted feature) matrix and the dictionary's (K, m) and (K, K)
# arrays, for m voted features. Paper scale needs at most 150 x 147 and 12 x 147.
_MAX_DENSE_ENTRIES = 2**26


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
        return cls(**d)


def _record(cls, doc, what: str):
    """A :class:`Kernel` or :class:`GridSpec` from a JSON object holding exactly its fields."""
    return cls(**_check_keys(doc, cls.__dataclass_fields__, what))


def _transition_pairs(transitions: np.ndarray, k: int) -> tuple:
    """Row-major (i, j) of the nonzero counts, as Python ints, and the counts' total.

    ``transitions`` must be (k, k) nonnegative integer counts whose total fits an int64.
    """
    if transitions.shape != (k, k):
        raise ValueError(f"transitions have shape {transitions.shape}, expected ({k}, {k})")
    if not np.issubdtype(transitions.dtype, np.integer):
        raise ValueError(f"transitions must be integer counts, got {transitions.dtype}")
    if np.any(transitions < 0):
        raise ValueError("transitions must be nonnegative counts")
    if (total := sum(transitions.ravel().tolist())) >= 2**63:  # Python ints: no wrap
        raise ValueError(f"transitions total {total}, more than an int64 holds")
    return list(map(tuple, np.argwhere(transitions).tolist())), total


@dataclass(frozen=True, eq=False)
class TasnscModel:
    """Everything needed to predict: frame provenance, primitives, flow fields.

    ``flows`` holds one (vx, vy) :class:`~tasnsc.gp.GPModel` per nonzero
    count of ``transitions``, row-major, fit with ``config.kernel``. The
    model derives ``patterns``, pair ``(i, j)`` with prior weight
    ``transitions[i, j] / sum``, and their :class:`~tasnsc.gp.PatternTable`
    ``table``, which every prediction reads. The dictionary has
    ``config.k_atoms`` atoms, the grid cells of ``config.grid_cell``, and
    atom entry ``[k, c]`` is grid feature ``columns[c]``.
    """

    frame: CurbsideFrame
    grid: GridSpec
    dictionary: Dictionary
    columns: np.ndarray
    transitions: np.ndarray
    flows: list
    config: PipelineConfig
    final_objective: float
    patterns: list = field(init=False, repr=False)
    table: PatternTable = field(init=False, repr=False)

    def __post_init__(self):
        k = self.dictionary.k
        if k != self.config.k_atoms:
            raise ValueError(f"the dictionary has {k} atoms, config.k_atoms is {self.config.k_atoms}")
        if self.grid.cell != self.config.grid_cell:
            raise ValueError(f"the grid has cell {self.grid.cell!r}, config.grid_cell is {self.config.grid_cell!r}")
        columns = np.array(self.columns)  # a copy, made read-only below
        if columns.ndim != 1 or columns.dtype.kind not in "iu":
            raise ValueError(f"columns must be a 1-D integer array, got shape {columns.shape} of {columns.dtype}")
        if len(columns) != self.dictionary.atoms.shape[1]:  # at least 1: an atom is nonzero
            raise ValueError(f"{len(columns)} columns for dictionary atoms of width {self.dictionary.atoms.shape[1]}")
        if np.any(columns[1:] <= columns[:-1]) or columns[0] < 0 or columns[-1] >= self.grid.dim:
            raise ValueError(f"columns must be strictly increasing grid features, in [0, {self.grid.dim})")
        columns.setflags(write=False)
        object.__setattr__(self, "columns", columns)
        pairs, total = _transition_pairs(self.transitions, k)
        if len(self.flows) != len(pairs):
            raise ValueError(f"{len(self.flows)} flows for {len(pairs)} nonzero transitions")
        patterns = [MotionPattern(pair, f, float(self.transitions[pair] / total)) for pair, f in zip(pairs, self.flows)]
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "table", PatternTable(patterns, self.config.kernel))


@dataclass(frozen=True, eq=False, slots=True)
class PredictedCandidate:
    """One rolled-out future with its normalized likelihood."""

    trajectory: Trajectory
    likelihood: float
    atoms: tuple
    step_variance: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
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
    with np.errstate(over="ignore"):
        extent = hi - lo
    if not np.isfinite(extent).all():
        raise PipelineError(
            f"grid cell {cell} pads the data bounds to [{lo[0]}, {hi[0]}] x [{lo[1]}, {hi[1]}], "
            "whose extent overflows"
        )
    return GridSpec(x_min=lo[0], x_max=hi[0], y_min=lo[1], y_max=hi[1], cell=cell)


def _check_dt(dt: float, config: PipelineConfig, what: str) -> None:
    if abs(dt - config.dt) > 1e-9:
        raise PipelineError(f"{what} is sampled at dt={dt}s, the pipeline expects dt={config.dt}s")


def _effective_frame(frame: CurbsideFrame, mode: str) -> CurbsideFrame:
    return frame if mode == "tasnsc" else identity_frame()


def _flow(pair: tuple, inputs, targets, kernel: Kernel) -> GPModel:
    """Pattern ``pair``'s flow fit on (inputs, targets); an error names the pattern."""
    try:
        return GPModel(inputs, targets, kernel)
    except ValueError as exc:
        raise type(exc)(f"pattern {pair}: {exc}") from exc


def _subsample(samples: np.ndarray, cap: int) -> np.ndarray:
    if len(samples) <= cap:
        return samples
    idx = np.unique(np.round(np.linspace(0, len(samples) - 1, cap)).astype(int))
    return samples[idx]


def train(dataset: Dataset, frame: CurbsideFrame, config: PipelineConfig | None = None) -> TasnscModel:
    """Fit the full pipeline on a training dataset.

    ``frame`` is the curbside frame of the training intersection, expressed
    in the same local coordinates as the data. The grid is fit to the
    curbside points with cells of ``config.grid_cell``, padded by one cell;
    features and atoms span the grid features that votes reach, and arrays
    on them of more than ``_MAX_DENSE_ENTRIES`` entries raise
    :class:`PipelineError`. A trajectory with fewer than 2 points or no
    motion is dropped after the grid is fit. Each atom pair that
    :func:`~tasnsc.sparse_coding.segment_pairs` gives is counted in
    ``transitions`` and gets one flow, fit on the velocities its segments span.
    """
    config = config if config is not None else PipelineConfig()
    if len(dataset) < 2:
        raise PipelineError(f"training needs at least 2 trajectories, got {len(dataset)}")
    _check_dt(dataset.dt, config, "training data")
    xy, offsets = curbside_stack(_effective_frame(frame, config.mode), dataset.trajectories)
    grid = _fit_grid(xy, config.grid_cell)
    votes = pair_votes(xy, offsets, dataset.dt, grid)
    if votes.n_clipped:
        logger.warning("%d segment midpoints outside grid bounds were clipped", votes.n_clipped)
    columns = np.unique(votes.index[votes.voting])
    m = len(columns)
    if (entries := len(dataset) * m) > _MAX_DENSE_ENTRIES:  # Python ints: no overflow
        raise PipelineError(
            f"grid_cell {config.grid_cell} gives {len(dataset)} trajectories x {m} voted features = "
            f"{entries} feature entries, more than the budget of {_MAX_DENSE_ENTRIES}"
        )
    k = int(config.k_atoms)  # a numpy integer's product could wrap
    if (entries := k * max(m, k)) > _MAX_DENSE_ENTRIES:
        raise PipelineError(
            f"k_atoms {config.k_atoms} with {m} voted features gives dictionary arrays of {entries} entries, "
            f"more than the budget of {_MAX_DENSE_ENTRIES}"
        )

    votes = replace(votes, index=np.searchsorted(columns, votes.index))  # onto the support
    features = featurize(votes, m)
    kept = np.flatnonzero(features.any(axis=1))
    if len(kept) < 2:
        raise PipelineError("fewer than 2 trajectories survived featurization")

    dictionary, codes = learn_dictionary(
        features[kept], config.k_atoms, config.sparsity, config.iters, config.seed
    )
    seglists = segment(votes, dictionary, config.min_segment, kept)
    transitions = build_transitions(seglists, config.k_atoms)

    samples, rows = velocities(xy, offsets, [dataset.dt] * len(dataset))
    blocks: dict = {}
    for t, segs in zip(kept, seglists):
        vel = samples[rows[t] : rows[t + 1]]  # (x, y, vx, vy), one per point but the last
        for a, b in segment_pairs(segs):
            # A pair's first segment starts before the last point, so every block has a row.
            blocks.setdefault((a.atom, b.atom), []).append(vel[a.start : min(b.stop, len(vel))])

    flows = []
    for i, j in np.argwhere(transitions).tolist():  # the pairs of blocks, row-major
        block = _subsample(np.vstack(blocks[i, j]), config.max_gp_points)
        flows.append(_flow((i, j), block[:, :2], block[:, 2:], config.kernel))

    return TasnscModel(
        frame=frame,
        grid=grid,
        dictionary=dictionary,
        columns=columns,
        transitions=transitions,
        flows=flows,
        config=config,
        final_objective=float(codes.objective[-1]) if len(codes.objective) else float("nan"),
    )


def _guard_box(grid: GridSpec) -> tuple:
    # Rollouts stopping box: the grid bounds scaled 3x about their center.
    cx, cy = 0.5 * (grid.x_min + grid.x_max), 0.5 * (grid.y_min + grid.y_max)
    hx, hy = 1.5 * (grid.x_max - grid.x_min), 1.5 * (grid.y_max - grid.y_min)
    return cx - hx, cx + hx, cy - hy, cy + hy


def _groups(which: np.ndarray, alive: np.ndarray) -> list:
    """(pattern, live candidates) for each pattern with a live candidate, in order."""
    return [(u, np.flatnonzero(alive & (which == u))) for u in np.unique(which[alive]).tolist()]


def _rollout(patterns, which: np.ndarray, start: np.ndarray, dt: float, n_steps: int, box: tuple):
    """Euler-integrate candidates along their patterns' posterior mean flows, together.

    Candidate ``c`` starts at ``start[c]`` on ``patterns[which[c]]``. Each
    step makes one posterior mean query per pattern over its live
    candidates, in candidate order; a candidate that leaves the box holds
    its position from then on. The (pattern, candidates) groups are formed
    once, and again only after a step where a candidate leaves the box.
    Step ``k``'s variance is the flow's at the point the step starts from,
    found after the loop with one posterior query per pattern over all its
    live steps; a held step repeats the last one. Returns points
    (C, n_steps, 2) and step variances (C, n_steps).
    """
    p = np.array(start, dtype=float)
    points = np.empty((len(p), n_steps, 2))
    starts = np.empty_like(points)
    live = np.empty((len(p), n_steps), dtype=bool)
    alive = np.ones(len(p), dtype=bool)
    n_alive = len(p)
    groups = _groups(which, alive)
    for k in range(n_steps):
        starts[:, k] = p
        live[:, k] = alive
        for u, sel in groups:
            p[sel] += dt * posterior_mean(patterns[u].flow, p[sel])
        alive &= (box[0] <= p[:, 0]) & (p[:, 0] <= box[1]) & (box[2] <= p[:, 1]) & (p[:, 1] <= box[3])
        if (still := np.count_nonzero(alive)) < n_alive:
            n_alive, groups = still, _groups(which, alive)
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


def _top_patterns(table: PatternTable, samples: np.ndarray, counts: np.ndarray, top_m: int) -> tuple:
    """Each observation's top M patterns by log-likelihood and their scores, both (M, J).

    The order is that of a stable sort of every pattern's exact score, and
    each score is :func:`pattern_log_likelihood` of the pattern on the rows
    of the observations it is computed for. Only the patterns that can still
    place are scored: round 1 scores each observation's top M by
    :func:`~tasnsc.gp.log_likelihood_bounds`, whose M-th best exact score,
    tau, is at most the true M-th best; round 2 scores the pairs whose bound
    reaches tau. Every other pattern scores strictly below the top M.
    ``table`` is the model's :class:`~tasnsc.gp.PatternTable`; the exact
    scores read each pattern's own flow.
    """
    bounds = log_likelihood_bounds(table, samples, counts)
    m = min(top_m, len(bounds))
    loglik = np.full(bounds.shape, -np.inf)
    todo, scored = np.zeros((2,) + bounds.shape, dtype=bool)
    np.put_along_axis(todo, np.argsort(-bounds, axis=0, kind="stable")[:m], True, axis=0)
    for _ in range(2):
        for p in np.flatnonzero(todo.any(axis=1)):
            obs = todo[p]
            loglik[p, obs] = pattern_log_likelihood(table.patterns[p], samples[np.repeat(obs, counts)], counts[obs])
        scored |= todo
        todo = (bounds >= np.sort(loglik, axis=0)[-m]) & ~scored
    order = np.argsort(-loglik, axis=0, kind="stable")[:m]
    return order, np.take_along_axis(loglik, order, axis=0)


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
    is the one it would get alone, within 1e-12. The batch shares the GP
    work: one bound pass over the model's pattern table, which the model
    built once, then one exact scoring query per pattern over the
    observations it can still place for (see :func:`_top_patterns`), one
    rollout mean query per pattern and step over (pattern, candidates)
    groups formed once per rollout, and one variance solve per rolled-out
    pattern. Raises
    :class:`~tasnsc.trajectory.TrajectoryError` naming the first observation
    whose curbside samples are not finite or square past the largest float,
    or whose likelihood underflows to zero under every pattern.
    """
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
    with np.errstate(over="ignore"):
        stacked, rows = velocities(xy, offsets, [o.dt for o in observations])
        # Scoring squares the samples.
        finite = np.isfinite(stacked * stacked).all(axis=1)
    if not finite.all():
        bad = observations[np.searchsorted(rows, np.argmin(finite), side="right") - 1]
        raise TrajectoryError(
            f"observation {bad.id!r} has curbside samples (x, y, vx, vy) that are not finite or whose squares overflow"
        )
    counts = np.diff(rows)

    table = model.table
    order, scores = _top_patterns(table, stacked, counts, cfg.top_m)
    unlikely = ~np.isfinite(scores[0])
    if unlikely.any():
        raise TrajectoryError(
            f"observation {observations[np.argmax(unlikely)].id!r} has likelihood zero under every motion pattern"
        )
    weights = np.exp(scores - scores.max(axis=0))
    weights /= weights.sum(axis=0)

    n_steps = int(round(cfg.t_pred / cfg.dt))
    # Candidate c is rank c % M of observation c // M.
    m = len(order)
    which = order.T.ravel()
    start = np.repeat(xy[offsets[1:] - 1], m, axis=0)
    points, variances = _rollout(table.patterns, which, start, cfg.dt, n_steps, _guard_box(model.grid))
    back = from_curbside(eff, points)

    psets = []
    for j, observed in enumerate(observations):
        times = observed.times[-1] + cfg.dt * np.arange(1, n_steps + 1)
        times.setflags(write=False)  # the candidates share it
        candidates = []
        for r in range(m):
            c = j * m + r
            atoms = table.patterns[which[c]].atoms
            traj = Trajectory(id=f"{observed.id}#pattern-{atoms[0]}-{atoms[1]}", dt=cfg.dt, times=times, xy=back[c])
            candidates.append(PredictedCandidate(traj, float(weights[r, j]), atoms, variances[c]))
        psets.append(PredictionSet(candidates=candidates))
    return psets


_MODEL_KEYS = ("version", "config", "frame", "grid", "columns", "atoms", "transitions", "final_objective", "patterns")
_PATTERN_KEYS = ("inputs", "vx", "vy")


def _model_to_dict(model: TasnscModel) -> dict:
    return {
        "version": MODEL_VERSION,
        "config": model.config.to_dict(),
        "frame": frame_to_config(model.frame),
        "grid": asdict(model.grid),
        "columns": model.columns.tolist(),
        "atoms": model.dictionary.atoms.tolist(),
        "transitions": model.transitions.tolist(),
        "final_objective": model.final_objective,
        "patterns": [
            {"inputs": f.inputs.tolist(), "vx": f.targets[:, 0].tolist(), "vy": f.targets[:, 1].tolist()}
            for f in model.flows
        ],
    }


def save_model(model: TasnscModel, path) -> None:
    """Write the model as a single JSON document (version field mandatory)."""
    with open(path, "w") as fh:
        json.dump(_model_to_dict(model), fh)
        fh.write("\n")


def _record_flow(pair: tuple, rec, kernel: Kernel) -> GPModel:
    rec = _check_keys(rec, _PATTERN_KEYS, "pattern")
    vx, vy = np.asarray(rec["vx"], dtype=float), np.asarray(rec["vy"], dtype=float)
    if vx.ndim != 1 or vx.shape != vy.shape:
        raise ValueError(f"pattern {pair} has vx of shape {vx.shape} and vy of shape {vy.shape}")
    return _flow(pair, rec["inputs"], np.column_stack((vx, vy)), kernel)


def load_model(path) -> TasnscModel:
    """Read a model file; GP factorizations are rebuilt from the stored data with ``config.kernel``."""
    with open(path) as fh:
        doc = json.load(fh)
    # The version is read first: a file of another version has other keys.
    if isinstance(doc, dict) and doc.get("version", MODEL_VERSION) != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc['version']!r} in {path}")
    doc = _check_keys(doc, _MODEL_KEYS, "model file")
    config = PipelineConfig.from_dict(doc["config"])
    # ``type(c) is int`` keeps out bool, which numpy would read as 0 or 1.
    if not (isinstance(doc["columns"], list) and all(type(c) is int for c in doc["columns"])):
        raise ValueError("model file columns must be a list of integers")
    transitions = np.asarray(doc["transitions"])
    # The pairs name the patterns in GP errors; the model checks that the counts are (K, K).
    pairs, _ = _transition_pairs(transitions, max(transitions.shape, default=0))
    if len(doc["patterns"]) != len(pairs):
        raise ValueError(f"{len(doc['patterns'])} pattern records for {len(pairs)} nonzero transitions")
    return TasnscModel(
        frame=frame_from_config(doc["frame"]),
        grid=_record(GridSpec, doc["grid"], "grid"),
        dictionary=Dictionary(atoms=np.asarray(doc["atoms"], dtype=float)),
        columns=doc["columns"],
        transitions=transitions,
        flows=[_record_flow(pair, rec, config.kernel) for pair, rec in zip(pairs, doc["patterns"])],
        config=config,
        final_objective=float(doc["final_objective"]),
    )
