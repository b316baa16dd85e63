"""Motion-primitive learning by semi-nonnegative sparse coding.

Trajectories are encoded on a discretized grid with four motion-direction
channels (+x, -x, +y, -y) per cell. Dictionary atoms are real-valued
feature vectors, codes are constrained nonnegative, and the two are fit by
alternating minimization of

    0.5 * ||X - D A||_F^2 + lam * sum(A),    A >= 0,  ||d_k|| = 1.

Each coordinate-descent code update soft-thresholds at ``lam`` and clamps
at zero; each atom update is the exact least-squares minimizer renormalized
to the unit sphere, so the objective never increases across a sweep
(HALS-style coordinate updates, Cichocki & Phan 2009, on the semi-NMF model
of Ding, Li & Jordan 2010).

The updates run in Gram form: the code pass reads from ``D^T X`` and
``D^T D``, the atom pass from ``X A^T`` and ``A A^T``, and the residual
``X - D A`` is formed only once, for the exact objective of the last sweep.

The front end works on many trajectories at once, their points stacked in
one array with offsets: :func:`pair_votes` derives the vote of every point
pair in one pass, :func:`featurize` builds the feature matrix with one
``bincount``, and :func:`segment` scores every point with one gather from
the atoms and labels it with one ``argmax``. Each stage is elementwise per
pair or point, so a trajectory gets the same bits stacked or alone. Given
votes re-indexed onto the features they reach, the stages work on those alone.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .trajectory import TrajectoryError

__all__ = [
    "GridSpec",
    "Dictionary",
    "SparseCodes",
    "Segment",
    "PairVotes",
    "pair_votes",
    "featurize",
    "learn_dictionary",
    "sparse_objective",
    "segment",
    "segment_pairs",
    "build_transitions",
]

logger = logging.getLogger(__name__)

N_CHANNELS = 4  # +x, -x, +y, -y


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the plane into square cells with 4 direction channels."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cell: float = 1.0

    def __post_init__(self):
        if not 0 < self.cell < np.inf:
            raise ValueError(f"cell size must be positive and finite, got {self.cell}")
        if not (-np.inf < self.x_min < self.x_max < np.inf and -np.inf < self.y_min < self.y_max < np.inf):
            raise ValueError("grid bounds must be finite and nonempty")
        with np.errstate(over="ignore"):  # a span that overflows is rejected here
            span = max(self.x_max - self.x_min, self.y_max - self.y_min) / self.cell
        if not span < np.inf or self.dim >= 2**63:
            raise ValueError(f"cell {self.cell} gives the grid 2**63 or more features")

    @property
    def nx(self) -> int:
        return max(1, int(np.ceil((self.x_max - self.x_min) / self.cell - 1e-9)))

    @property
    def ny(self) -> int:
        return max(1, int(np.ceil((self.y_max - self.y_min) / self.cell - 1e-9)))

    @property
    def dim(self) -> int:
        """Feature dimension: nx * ny * 4 channels."""
        return self.nx * self.ny * N_CHANNELS


@dataclass(frozen=True, eq=False)
class Dictionary:
    """K learned motion primitives, one unit-norm feature vector per row."""

    atoms: np.ndarray  # (K, m): m features, in a model its ``columns``

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a (K, m) array")
        if not np.all(np.isfinite(atoms)):
            raise ValueError("dictionary atoms contain non-finite values")
        with np.errstate(over="ignore"):  # a norm that overflows is rejected below
            norms = np.linalg.norm(atoms, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("dictionary contains a zero atom")
        if not np.all(norms < np.inf):
            raise ValueError("dictionary contains an atom whose norm overflows")
        atoms = atoms.copy()
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def k(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True, eq=False)
class SparseCodes:
    """Nonnegative coefficients (K, n) plus the objective value per sweep."""

    matrix: np.ndarray
    objective: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if np.any(m < 0):
            raise ValueError("sparse codes must be nonnegative")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))


@dataclass(frozen=True, eq=False)
class PairVotes:
    """The (cell, channel) vote of every consecutive point pair of stacked trajectories.

    Trajectory ``t`` holds the stacked points ``offsets[t]:offsets[t + 1]``,
    and ``owner[k]`` is the trajectory of point ``k``. Entry ``k`` of
    ``index`` and ``voting`` describes the pair of stacked points
    ``(k, k + 1)``: its feature index, and whether it votes (both points in
    one trajectory, and they differ). ``n_clipped`` counts the votes whose
    midpoint was clipped to the grid.
    """

    offsets: np.ndarray
    owner: np.ndarray
    index: np.ndarray
    voting: np.ndarray
    n_clipped: int


def pair_votes(xy, offsets, grid: GridSpec) -> PairVotes:
    """Votes of the point pairs of trajectories stacked in ``xy`` (N, 2).

    A pair votes in the cell of its segment midpoint, clipped to the border
    cell when outside the grid, and in the channel of its dominant
    displacement component (+x, -x, +y, -y; x wins ties), so no time step
    enters. A pair of equal points, or one that joins two trajectories,
    does not vote; its feature index is meaningless. Every stage is
    elementwise, so a trajectory's votes are the same bits stacked or alone.
    """
    xy = np.asarray(xy, dtype=float)
    if xy.shape[1:] != (2,):
        raise ValueError(f"stacked points must be (N, 2), got shape {xy.shape}")
    offsets = np.asarray(offsets, dtype=int)
    owner = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    dx, dy = np.diff(xy, axis=0).T
    channel = np.where(np.abs(dx) >= np.abs(dy), np.where(dx > 0, 0, 1), np.where(dy > 0, 2, 3))
    voting = ((dx != 0.0) | (dy != 0.0)) & (owner[:-1] == owner[1:])
    mids = 0.5 * (xy[:-1] + xy[1:])
    cells = np.floor((mids - (grid.x_min, grid.y_min)) / grid.cell)
    hi = (grid.nx - 1, grid.ny - 1)
    n_clipped = int(np.count_nonzero(np.any((cells < 0) | (cells > hi), axis=1) & voting))
    ix, iy = np.clip(cells, 0, hi).astype(int).T
    return PairVotes(offsets, owner, (iy * grid.nx + ix) * N_CHANNELS + channel, voting, n_clipped)


def _voted(votes: PairVotes, dim: int, what: str) -> np.ndarray:
    """The feature index of every voting pair, each checked to be below ``dim``, the number of ``what``."""
    index = votes.index[votes.voting]
    if index.size and (top := int(index.max())) >= dim:
        raise ValueError(f"vote index {top} is past the {dim} {what}")
    return index


def featurize(votes: PairVotes, dim: int) -> np.ndarray:
    """(T, dim) features, one row per stacked trajectory: its unit-norm vote counts over (cell, channel).

    Built with one ``bincount`` over ``row * dim + index``; a vote index at or past ``dim`` raises
    ``ValueError``. A row without a vote stays zero; every other row is a unit vector, with exact norms.
    """
    n_rows = len(votes.offsets) - 1
    rows = votes.owner[:-1][votes.voting]
    counts = np.bincount(rows * dim + _voted(votes, dim, "features"), minlength=n_rows * dim)
    X = counts.reshape(n_rows, dim).astype(float)
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))[:, None]
    np.divide(X, norms, out=X, where=norms > 0.0)
    return X


def sparse_objective(features: np.ndarray, atoms: np.ndarray, codes: np.ndarray, lam: float) -> float:
    """0.5 * ||X - D A||_F^2 + lam * sum(A).

    ``features`` holds one sample per row (as in :func:`learn_dictionary`),
    ``atoms`` one primitive per row, ``codes`` is (K, n).
    """
    resid = features.T - atoms.T @ codes
    return float(0.5 * np.sum(resid * resid) + lam * np.sum(codes))


def _sample_errors(sq_norms, DtX, DtD, A) -> np.ndarray:
    """||x_j - D a_j||^2 per sample, from ||x_j||^2, D^T X and D^T D."""
    return sq_norms - 2.0 * np.sum(A * DtX, axis=0) + np.sum(A * (DtD @ A), axis=0)


def learn_dictionary(
    features,
    k_atoms: int,
    lam: float = 0.1,
    iters: int = 200,
    seed: int = 0,
) -> tuple[Dictionary, SparseCodes]:
    """Alternating minimization for the semi-nonnegative sparse coding model.

    ``features`` is an (n, dim) array with one sample per row; non-finite
    values raise ``ValueError``. Returns the learned dictionary and the
    codes; ``codes.objective`` records the objective after every full sweep
    and is non-increasing. An atom left without codes is reseated on the
    worst-reconstructed sample, ``argmax_j ||x_j - D a_j||^2``.

    Both coordinate passes work in Gram form, so the residual ``X - D A``
    is never updated. The code pass reads atom k's correlation as
    ``(D^T X)[k] - (D^T D)[k] @ A + A[k]``; the atom pass reads the
    least-squares target as
    ``(X A^T)[:, k] - D @ (A A^T)[:, k] + D[:, k] (A A^T)[k, k]``. The
    objective of every sweep but the last comes from the same Gram
    products, ``0.5 (||X||^2 - 2 <A, D^T X> + <A, D^T D A>) + lam sum(A)``;
    the last sweep forms the residual explicitly, so ``objective[-1]`` is
    exact even where the Gram identity would cancel to round-off.
    """
    # Column-major: BLAS rounds the products of a row-major X differently.
    X = np.asfortranarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("features must be a nonempty (n, dim) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if k_atoms < 1:
        raise ValueError(f"need at least one atom, got {k_atoms}")
    if lam < 0:
        raise ValueError(f"sparsity weight must be nonnegative, got {lam}")
    n, dim = X.shape
    if k_atoms > dim:
        logger.warning("k_atoms=%d exceeds feature dimension %d", k_atoms, dim)
    sq_norms = np.sum(X * X, axis=1)

    rng = np.random.default_rng(seed)
    if n >= k_atoms:
        picks = rng.choice(n, size=k_atoms, replace=False)
        D = X[picks].T.copy()
    else:
        D = np.vstack((X, rng.standard_normal((k_atoms - n, dim)))).T
    norms = np.linalg.norm(D, axis=0)
    dead = norms < 1e-12
    if np.any(dead):
        D[:, dead] = rng.standard_normal((dim, int(dead.sum())))
        norms = np.linalg.norm(D, axis=0)
    D /= norms

    A = np.zeros((k_atoms, n))
    history = np.empty(iters)
    DtX = (X @ D).T
    DtD = D.T @ D
    for it in range(iters):
        # Code pass: exact nonnegative coordinate minimization per atom row.
        for k in range(k_atoms):
            corr = DtX[k] - DtD[k] @ A + A[k]  # residual with atom k's own term restored
            np.maximum(corr - lam, 0.0, out=A[k])
        # Atom pass: sphere-constrained least squares, one atom at a time.
        XAt = X.T @ A.T
        AAt = A @ A.T
        for k in range(k_atoms):
            weight = AAt[k, k]
            if weight == 0.0:
                # Unused atom contributes nothing; reseat it on the worst
                # reconstructed sample without changing the objective.
                j = int(np.argmax(_sample_errors(sq_norms, (X @ D).T, D.T @ D, A)))
                cand = X[j]
                if np.linalg.norm(cand) < 1e-12:
                    cand = rng.standard_normal(dim)
                D[:, k] = cand / np.linalg.norm(cand)
                continue
            g = XAt[:, k] - D @ AAt[:, k] + D[:, k] * weight
            g_norm = np.sqrt(g @ g)
            if g_norm < 1e-12:
                continue
            D[:, k] = g / g_norm
        if it == iters - 1:
            history[it] = sparse_objective(X, D.T, A, lam)
        else:
            DtX = (X @ D).T
            DtD = D.T @ D
            history[it] = 0.5 * np.sum(_sample_errors(sq_norms, DtX, DtD, A)) + lam * np.sum(A)

    return Dictionary(atoms=D.T), SparseCodes(matrix=A, objective=history)


@dataclass(frozen=True)
class Segment:
    """A maximal run of trajectory points explained by one atom; ``stop`` is exclusive."""

    atom: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def _merge_short_runs(runs: list, scores: np.ndarray, min_len: int) -> list:
    """Merge runs ``(atom, start, stop)`` shorter than ``min_len`` into a neighbor, shortest first.

    A short run joins whichever neighboring run's atom scores higher on the
    short run's own points (left neighbor on ties).
    """
    lengths = [stop - start for _, start, stop in runs]
    while len(runs) > 1 and min(lengths) < min_len:
        pos = lengths.index(min(lengths))  # the leftmost of the shortest
        _, start, stop = runs[pos]
        neighbors = [runs[i][0] for i in (pos - 1, pos + 1) if 0 <= i < len(runs)]
        if len(neighbors) == 1 or neighbors[0] == neighbors[1]:
            best = neighbors[0]
        else:
            # Strength of a neighbor: how well its atom explains the short
            # run; ties go to the left one. numpy's sum, not Python's: the
            # two associate 3+ terms differently.
            left, right = (scores[start:stop, a].sum() for a in neighbors)
            best = neighbors[0] if left >= right else neighbors[1]
        # Relabel the run in place and join it to each neighbor that now
        # has the same atom: the runs a rescan of the labels would give.
        lo = pos - 1 if pos > 0 and runs[pos - 1][0] == best else pos
        hi = pos + 2 if pos + 1 < len(runs) and runs[pos + 1][0] == best else pos + 1
        runs[lo:hi] = [(best, runs[lo][1], runs[hi - 1][2])]
        lengths[lo:hi] = [runs[lo][2] - runs[lo][1]]
    return runs


def segment(votes: PairVotes, dictionary: Dictionary, min_len: int = 3, rows=None) -> list:
    """Segments of each stacked trajectory in ``rows`` (all by default): runs of points on one atom.

    Each of those trajectories needs at least 2 points. Every point's atom
    scores come from one gather of the atoms at the vote indices, which must
    be below the atoms' width; the last point of a trajectory inherits the
    score of its incoming pair. One ``argmax`` labels the points (ties go to
    the lower atom) and one change-point pass finds the runs. Only the merging
    of runs shorter than ``min_len`` loops per trajectory.
    """
    offsets = votes.offsets
    lengths = np.diff(offsets)
    rows = range(len(lengths)) if rows is None else rows
    if (t := next((t for t in rows if lengths[t] < 2), None)) is not None:
        raise TrajectoryError(f"stacked trajectory {t} has {lengths[t]} points, segmenting needs at least 2 points")
    n = int(offsets[-1])
    scores = np.zeros((n, dictionary.k))
    scores[:-1][votes.voting] = dictionary.atoms[:, _voted(votes, dictionary.atoms.shape[1], "atom columns")].T
    last = offsets[1:][lengths >= 2] - 1
    scores[last] = scores[last - 1]  # the last point inherits its incoming motion
    labels = np.argmax(scores, axis=1)  # argmax takes the first (lowest) index on ties

    new_run = np.ones(n, dtype=bool)
    new_run[1:] = labels[1:] != labels[:-1]
    new_run[offsets[:-1][lengths > 0]] = True
    starts = np.flatnonzero(new_run)
    first = np.searchsorted(starts, offsets).tolist()  # each trajectory's first run
    run_atoms = labels[starts].tolist()
    starts = starts.tolist()
    stops = starts[1:] + [n]
    bounds = offsets.tolist()

    seglists = []
    for t in rows:
        a, b, o = first[t], first[t + 1], bounds[t]
        runs = [(atom, start - o, stop - o) for atom, start, stop in zip(run_atoms[a:b], starts[a:b], stops[a:b])]
        runs = _merge_short_runs(runs, scores[o : bounds[t + 1]], min_len)
        seglists.append([Segment(atom, start, stop) for atom, start, stop in runs])
    return seglists


def segment_pairs(segments: list) -> list:
    """The adjacent ``(a, b)`` pairs of a segment list, or its one segment paired with itself."""
    return list(zip(segments, segments[1:])) or [(s, s) for s in segments]


def build_transitions(seglists, k_atoms: int) -> np.ndarray:
    """Count trajectories transitioning between atom pairs.

    ``seglists`` holds one :class:`Segment` list per trajectory. Each
    distinct atom pair of its :func:`segment_pairs` bumps ``T[i, j]`` once
    for that trajectory.
    """
    T = np.zeros((k_atoms, k_atoms), dtype=int)
    for segs in seglists:
        pairs = {(a.atom, b.atom) for a, b in segment_pairs(segs)}
        if any(not 0 <= a < k_atoms for pair in pairs for a in pair):
            raise ValueError(f"atom index out of range for K={k_atoms}: {[s.atom for s in segs]}")
        for i, j in pairs:
            T[i, j] += 1
    return T
