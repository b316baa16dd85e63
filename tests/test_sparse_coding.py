import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tasnsc import sparse_coding
from tasnsc.sparse_coding import (
    Dictionary,
    GridSpec,
    Segment,
    build_transitions,
    featurize,
    learn_dictionary,
    segment,
    sparse_objective,
)
from tasnsc.trajectory import Trajectory, TrajectoryError


def traj_from_xy(xy, dt=1.0, id="t"):
    xy = np.asarray(xy, dtype=float)
    return Trajectory(id=id, dt=dt, times=dt * np.arange(len(xy)), xy=xy)


GRID = GridSpec(0.0, 4.0, 0.0, 4.0, cell=1.0)


def stacked(trajs):
    """The trajectories' points in one array, with the offsets of each trajectory."""
    offsets = np.concatenate(([0], np.cumsum([len(t) for t in trajs])))
    return np.vstack([t.xy for t in trajs]), offsets


def votes_of(trajs, grid=GRID):
    """The pair votes of the trajectories stacked."""
    return sparse_coding.pair_votes(*stacked(trajs), grid)


def features_of(traj, grid=GRID):
    """The feature row of ``traj`` stacked alone."""
    return featurize(votes_of([traj], grid), grid.dim)[0]


def segments_of(traj, dictionary, grid=GRID, min_len=3):
    """The segments of ``traj`` stacked alone."""
    return segment(votes_of([traj], grid), dictionary, min_len)[0]


class TestGridSpec:
    def test_dimensions(self):
        assert GRID.nx == 4 and GRID.ny == 4
        assert GRID.dim == 64

    def test_invalid(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0, 1, 1.0)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, -1.0)

    @pytest.mark.parametrize(
        "bounds",
        [(math.nan, 1, 0, 1, 1.0), (0, math.inf, 0, 1, 1.0), (0, 1, -math.inf, 1, 1.0), (0, 1, 0, math.nan, 1.0),
         (0, 1, 0, 1, math.nan), (0, 1, 0, 1, math.inf)],
    )
    def test_non_finite_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            GridSpec(*bounds)

    @pytest.mark.parametrize(
        "bounds",
        [(0, 1, 0, 1, 1e-320), (0, 1, 0, 1, 1e-300), (0, 1, 0, 1, 1e-10), (-1e308, 1e308, 0, 1, 1.0),
         (0, 2**31, 0, 2**30, 1.0)],
    )
    def test_more_features_than_int64_rejected(self, bounds):
        # Feature indices are int64; 2**31 x 2**30 cells x 4 channels is 2**63.
        with pytest.raises(ValueError, match=r"2\*\*63 or more features"):
            GridSpec(*bounds)

    def test_largest_int64_grid_accepted(self):
        assert GridSpec(0, 2**31, 0, 2**30 - 1, 1.0).dim == 2**63 - 2**33


class TestFeaturize:
    def test_single_eastward_step(self):
        feat = features_of(traj_from_xy([[0.2, 0.2], [0.8, 0.2]]))
        nonzero = np.flatnonzero(feat)
        # Cell (0, 0), +x channel is feature index 0.
        assert list(nonzero) == [0]
        assert feat[0] == pytest.approx(1.0)

    def test_channel_follows_the_dominant_displacement(self):
        # Divided by a time step of 1e-300, dx = 2e8 and dy = 3e8 would both read inf, and x wins ties.
        votes = votes_of([traj_from_xy([[0.5, 0.5], [2e8 + 0.5, 3e8 + 0.5]])])
        assert votes.voting.tolist() == [True]
        assert votes.index[0] % sparse_coding.N_CHANNELS == 2  # +y

    def test_stationary_row_is_zero(self):
        # No pair votes, so train drops the trajectory.
        assert not features_of(traj_from_xy([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])).any()

    def test_l_shape_two_cells(self):
        # East step midpoint (1.0, 0.5) -> cell (1, 0) +x; north step
        # midpoint (1.5, 1.0) -> cell (1, 1) +y.
        grid = GridSpec(0.0, 2.0, 0.0, 2.0, cell=1.0)
        feat = features_of(traj_from_xy([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5]]), grid)
        nonzero = sorted(np.flatnonzero(feat))
        assert nonzero == [(0 * 2 + 1) * 4 + 0, (1 * 2 + 1) * 4 + 2]
        assert np.allclose(feat[nonzero], 1 / np.sqrt(2))

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        steps = rng.uniform(-0.4, 0.4, (30, 2))
        xy = 2.0 + np.cumsum(steps, axis=0)
        feat = features_of(traj_from_xy(xy))
        assert np.linalg.norm(feat) == pytest.approx(1.0)

    def test_out_of_bounds_clipped(self):
        votes = votes_of([traj_from_xy([[-3.0, 0.5], [-2.0, 0.5]])])
        assert votes.n_clipped == 1
        assert np.linalg.norm(featurize(votes, GRID.dim)) == pytest.approx(1.0)

    def test_too_short(self):
        # A trajectory of fewer than 2 points has no pair to vote.
        assert not features_of(traj_from_xy(np.zeros((1, 2)))).any()

    def test_vote_past_the_features_names_it(self):
        votes = votes_of([traj_from_xy([[0.5, 0.5], [1.5, 0.5], [3.5, 3.5]])])
        top = int(votes.index[votes.voting].max())
        with pytest.raises(ValueError, match=f"vote index {top} is past the {top} features"):
            featurize(votes, top)
        assert featurize(votes, top + 1).shape == (1, top + 1)


def planted_data(rng, n_per=50, dim=16, noise=0.01):
    a1 = np.zeros(dim)
    a1[:8] = 1 / np.sqrt(8)
    a2 = np.zeros(dim)
    a2[8:] = 1 / np.sqrt(8)
    X = []
    for atom in (a1, a2):
        X.append(atom + rng.normal(0.0, noise, (n_per, dim)))
    return np.vstack(X), (a1, a2)


def best_match_cosines(atoms, planted):
    out = []
    for p in planted:
        cos = np.abs(atoms @ p) / (np.linalg.norm(atoms, axis=1) * np.linalg.norm(p))
        out.append(cos.max())
    return out


class TestLearnDictionary:
    def test_rank_one_data(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=12)
        v /= np.linalg.norm(v)
        X = np.tile(v, (20, 1))
        dictionary, codes = learn_dictionary(X, k_atoms=1, lam=0.0, iters=50, seed=0)
        cos = abs(dictionary.atoms[0] @ v)
        assert cos == pytest.approx(1.0, abs=1e-9)
        assert codes.objective[-1] < 1e-18

    def test_planted_recovery(self):
        rng = np.random.default_rng(2)
        X, planted = planted_data(rng)
        dictionary, _ = learn_dictionary(X, k_atoms=2, lam=0.01, iters=100, seed=3)
        for cos in best_match_cosines(dictionary.atoms, planted):
            assert cos >= 0.9

    def test_huge_lambda_kills_codes(self):
        rng = np.random.default_rng(4)
        X, _ = planted_data(rng)
        _, codes = learn_dictionary(X, k_atoms=2, lam=2.0, iters=10, seed=0)
        assert np.all(codes.matrix == 0.0)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 24))
        _, codes = learn_dictionary(X, k_atoms=6, lam=0.1, iters=200, seed=1)
        diffs = np.diff(codes.objective)
        assert np.all(diffs <= 1e-9 * (1.0 + abs(codes.objective[0])))

    def test_codes_nonnegative(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 10))
        _, codes = learn_dictionary(X, k_atoms=4, lam=0.05, iters=60, seed=2)
        assert np.all(codes.matrix >= 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 12))
        d1, c1 = learn_dictionary(X, k_atoms=3, lam=0.1, iters=40, seed=9)
        d2, c2 = learn_dictionary(X, k_atoms=3, lam=0.1, iters=40, seed=9)
        assert np.array_equal(d1.atoms, d2.atoms)
        assert np.array_equal(c1.matrix, c2.matrix)

    def test_objective_helper_matches_history(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 10))
        dictionary, codes = learn_dictionary(X, k_atoms=3, lam=0.2, iters=30, seed=0)
        recomputed = sparse_objective(X, dictionary.atoms, codes.matrix, 0.2)
        assert recomputed == pytest.approx(codes.objective[-1], rel=1e-9)

    def test_stops_when_the_objective_stops_falling(self):
        X, _ = planted_data(np.random.default_rng(2))
        dictionary, codes = learn_dictionary(X, k_atoms=2, lam=0.01, iters=200, seed=3)
        objective = codes.objective
        assert 2 <= len(objective) < 200
        # The stopping sweep records the exact residual-form objective.
        assert objective[-1] == sparse_objective(X, dictionary.atoms, codes.matrix, 0.01)
        assert objective[-2] - objective[-1] <= sparse_coding.TOL * abs(objective[-1]) + 1e-12
        # No sweep before it met the rule, and none reseated an atom.
        falls = objective[:-2] - objective[1:-1]
        assert np.all(falls > sparse_coding.TOL * np.abs(objective[1:-1]))

    @pytest.mark.parametrize("iters", [1, 2, 50])
    def test_the_cap_ends_a_run_that_still_falls(self, iters):
        # Dense Gaussian data: the rule stops this run only after 130 sweeps.
        X = np.random.default_rng(5).normal(size=(40, 24))
        dictionary, codes = learn_dictionary(X, k_atoms=6, lam=0.1, iters=iters, seed=1)
        assert len(codes.objective) == iters
        assert codes.objective[-1] == sparse_objective(X, dictionary.atoms, codes.matrix, 0.1)

    def test_a_sweep_that_reseats_an_atom_does_not_stop_the_run(self):
        # At lam=2 no sample gets a code, so every sweep leaves the objective
        # where it was and reseats both atoms: without the reseats the rule
        # would stop the run at its second sweep.
        X, _ = planted_data(np.random.default_rng(4))
        _, codes = learn_dictionary(X, k_atoms=2, lam=2.0, iters=10, seed=0)
        assert not codes.matrix.any()
        assert len(codes.objective) == 10
        assert np.all(np.diff(codes.objective[:-1]) == 0.0)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            learn_dictionary(np.empty((0, 4)), 1)
        with pytest.raises(ValueError):
            learn_dictionary(np.ones((3, 4)), 0)
        with pytest.raises(ValueError):
            learn_dictionary(np.ones((3, 4)), 2, lam=-0.5)

    def test_final_objective_is_explicit_residual(self):
        # On rank-one data the Gram-form objective cancels to round-off (it
        # reads exactly 0 here); the last entry must be the explicit one.
        rng = np.random.default_rng(1)
        v = rng.normal(size=12)
        X = np.tile(v / np.linalg.norm(v), (20, 1))
        dictionary, codes = learn_dictionary(X, k_atoms=1, lam=0.0, iters=50, seed=0)
        assert codes.objective[-1] == sparse_objective(X, dictionary.atoms, codes.matrix, 0.0)
        assert codes.objective[-1] > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.ones((3, 4))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            learn_dictionary(X, 2)

    def test_unused_atoms_reseated_on_worst_sample(self):
        # Three samples, five atoms: the two random-normal atoms get no code
        # at lam=0.3 and are reseated in the first atom pass. They come after
        # every used atom, so the residual they were reseated on is the one
        # the returned dictionary and codes leave.
        X = np.random.default_rng(5).normal(size=(3, 6))
        dictionary, codes = learn_dictionary(X, k_atoms=5, lam=0.3, iters=1, seed=0)
        used = codes.matrix.any(axis=1)
        assert list(used) == [True, True, True, False, False]
        resid = X.T - dictionary.atoms.T @ codes.matrix
        errors = np.sum(resid * resid, axis=0)
        worst = int(np.argmax(errors))
        assert errors[worst] - np.sort(errors)[-2] > 0.01  # no near-tie for rounding to break
        for k in (3, 4):
            assert np.allclose(dictionary.atoms[k], X[worst] / np.linalg.norm(X[worst]), atol=1e-12)

        dictionary, codes = learn_dictionary(X, k_atoms=5, lam=0.3, iters=40, seed=0)
        assert np.allclose(np.linalg.norm(dictionary.atoms, axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(codes.objective) <= 1e-9 * (1.0 + abs(codes.objective[0])))


class TestDictionary:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_atom_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Dictionary(atoms=[[bad, 1.0], [1.0, 0.0]])


def reference_learn_dictionary(features, k_atoms, lam, iters, seed):
    """Residual-form alternating minimization: the scalar reference.

    The loop ``learn_dictionary`` ran before it moved to Gram form: every
    coordinate update is a rank-1 update of the dense residual ``X - D A``.
    Also returns a margin: the smallest soft-threshold argument
    ``|corr - lam|``, code weight ``a_k . a_k`` and atom target norm met.
    Where one is near zero, rounding picks the path: the exact
    ``weight == 0.0`` and ``g_norm < 1e-12`` tests flip, or a sample with
    ``corr = lam`` enters or stays out of an atom's support, which an
    unstable fixed point (e.g. ``lam = 0``, an atom orthogonal to some
    samples) then amplifies sweep by sweep.
    """
    X = np.asarray(features, dtype=float).T
    dim, n = X.shape
    rng = np.random.default_rng(seed)
    if n >= k_atoms:
        D = X[:, rng.choice(n, size=k_atoms, replace=False)].copy()
    else:
        D = np.vstack((X.T, rng.standard_normal((k_atoms - n, dim)))).T
    norms = np.linalg.norm(D, axis=0)
    dead = norms < 1e-12
    if np.any(dead):
        D[:, dead] = rng.standard_normal((dim, int(dead.sum())))
        norms = np.linalg.norm(D, axis=0)
    D /= norms

    A = np.zeros((k_atoms, n))
    history = np.empty(iters)
    margin = np.inf
    R = X - D @ A
    for it in range(iters):
        for k in range(k_atoms):
            a_old = A[k]
            corr = D[:, k] @ R + a_old
            margin = min(margin, np.min(np.abs(corr - lam)))
            a_new = np.maximum(corr - lam, 0.0)
            delta = a_old - a_new
            if np.any(delta):
                R += np.outer(D[:, k], delta)
                A[k] = a_new
        for k in range(k_atoms):
            ak = A[k]
            weight = ak @ ak
            margin = min(margin, weight)
            if weight == 0.0:
                j = int(np.argmax(np.sum(R * R, axis=0)))
                cand = X[:, j]
                if np.linalg.norm(cand) < 1e-12:
                    cand = rng.standard_normal(dim)
                D[:, k] = cand / np.linalg.norm(cand)
                continue
            g = R @ ak + D[:, k] * weight
            g_norm = np.linalg.norm(g)
            margin = min(margin, g_norm)
            if g_norm < 1e-12:
                continue
            d_new = g / g_norm
            R += np.outer(D[:, k] - d_new, ak)
            D[:, k] = d_new
        R = X - D @ A
        history[it] = 0.5 * np.sum(R * R) + lam * np.sum(A)
    return D.T, A, history, margin


@st.composite
def _well_posed_problems(draw):
    """Dense Gaussian or sparse nonnegative data with k_atoms <= min(n, dim).

    Up to 8 all-zero columns are mixed in, as the grid cells no training
    trajectory visits are in ``featurize``'s output.
    """
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 10))
    k_atoms = draw(st.integers(1, min(n, dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, dim))
    if draw(st.booleans()):
        X = np.abs(X) * (rng.random((n, dim)) < 0.4)  # like featurize: sparse, nonnegative
    pad = draw(st.integers(0, 8))
    X = np.hstack((X, np.zeros((n, pad))))[:, rng.permutation(dim + pad)]
    return X, k_atoms, draw(st.floats(0.0, 0.5)), draw(st.integers(1, 25)), draw(st.integers(0, 2**16))


def checked_against_reference(X, k_atoms, lam, iters, seed):
    """learn_dictionary's atoms, checked against the residual-form reference.

    The reference runs as many sweeps as learn_dictionary ran, so the
    iterates agree up to the stop. None where the reference met a margin
    under 1e-6: there rounding may pick the path, and the two need not agree.
    """
    dictionary, got = learn_dictionary(X, k_atoms, lam, iters, seed)
    atoms, codes, history, margin = reference_learn_dictionary(X, k_atoms, lam, len(got.objective), seed)
    if margin <= 1e-6:
        return None
    tol = 1e-9 * (1.0 + abs(history[0]))
    assert np.max(np.abs(dictionary.atoms - atoms)) <= tol
    assert np.max(np.abs(got.matrix - codes)) <= tol
    assert np.max(np.abs(got.objective - history)) <= tol
    return dictionary.atoms


class TestGramFormOracle:
    @settings(max_examples=100, deadline=None)
    @given(problem=_well_posed_problems())
    def test_matches_residual_form(self, problem):
        X, k_atoms, lam, iters, seed = problem
        atoms = checked_against_reference(X, k_atoms, lam, iters, seed)
        assume(atoms is not None)  # no reseat, no path picked by rounding
        if np.all(X.any(axis=1)):
            # Atoms are drawn from samples and reseated on them, so they
            # stay on the columns where some sample is nonzero.
            assert np.all(atoms[:, ~X.any(axis=0)] == 0.0)

    def test_zero_sample_runs_on_all_columns(self):
        # Sample 2 is all zero. Picked as a starting atom, it is replaced by
        # a random draw over every column, zero columns included.
        X = np.random.default_rng(0).random((5, 6))
        X[:, [1, 4]] = 0.0
        X[2] = 0.0
        atoms = checked_against_reference(X, 3, 0.05, 10, 0)
        assert atoms is not None
        assert np.all(atoms[:, [1, 4]] != 0.0)

    def test_fewer_samples_than_atoms_runs_on_all_columns(self):
        # Two of five starting atoms are random draws over every column.
        X = np.random.default_rng(1).random((3, 7))
        X[:, [0, 5]] = 0.0
        atoms = checked_against_reference(X, 5, 0.05, 10, 0)
        assert atoms is not None
        assert np.all(atoms[:, [0, 5]] != 0.0)


def handmade_dictionary():
    """Atom 0: eastbound along the bottom row; atom 1: northbound up the x=3 column."""
    a0 = np.zeros(GRID.dim)
    for ix in range(4):
        a0[(0 * 4 + ix) * 4 + 0] = 0.5
    a1 = np.zeros(GRID.dim)
    for iy in range(4):
        a1[(iy * 4 + 3) * 4 + 2] = 0.5
    return Dictionary(atoms=np.vstack((a0, a1)))


class TestSegment:
    def test_single_atom_support(self):
        d = handmade_dictionary()
        traj = traj_from_xy([[0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [3.4, 0.5]])
        segs = segments_of(traj, d)
        assert len(segs) == 1
        assert segs[0].atom == 0
        assert (segs[0].start, segs[0].stop) == (0, 4)

    def test_two_segments_in_order(self):
        d = handmade_dictionary()
        traj = traj_from_xy(
            [[0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [3.5, 0.5], [3.5, 1.5], [3.5, 2.5], [3.5, 3.5]]
        )
        segs = segments_of(traj, d)
        assert [s.atom for s in segs] == [0, 1]
        assert segs[0].stop == segs[1].start

    def test_no_support_tie_breaks_to_zero(self):
        d = handmade_dictionary()
        traj = traj_from_xy([[3.5, 0.5], [2.5, 0.5], [1.5, 0.5], [0.5, 0.5]])  # westbound
        segs = segments_of(traj, d)
        assert len(segs) == 1
        assert segs[0].atom == 0

    def test_short_blip_merged(self):
        d = handmade_dictionary()
        # One northbound step in the middle of an eastbound run: too short
        # to stand alone, merged away.
        traj = traj_from_xy(
            [[0.5, 0.5], [1.5, 0.5], [2.5, 0.5], [3.2, 0.5], [3.2, 1.5], [3.3, 1.5], [3.4, 1.5]]
        )
        segs = segments_of(traj, d, min_len=4)
        assert len(segs) == 1

    def test_atoms_off_the_grid_rejected(self):
        # Atoms narrower than the grid: the northbound vote in the top-right cell is past them.
        d = Dictionary(atoms=handmade_dictionary().atoms[:, :-4])
        traj = traj_from_xy([[3.5, 2.5], [3.5, 3.5], [3.5, 3.9]])
        with pytest.raises(ValueError, match=f"vote index {GRID.dim - 2} is past the {GRID.dim - 4} atom columns"):
            segments_of(traj, d)


def oracle_pairs(traj, grid):
    """Scalar per-pair rule: (pair, feature index, clipped) for each moving pair.

    The dominant velocity axis picks the channel (+x, -x, +y, -y), a tie goes
    to x, a zero-velocity pair votes nothing, and the segment midpoint's cell
    is clipped to the grid border.
    """
    votes = []
    for k in range(len(traj) - 1):
        (x0, y0), (x1, y1) = traj.xy[k], traj.xy[k + 1]
        vx, vy = (x1 - x0) / traj.dt, (y1 - y0) / traj.dt
        if vx == 0.0 and vy == 0.0:
            continue
        if abs(vx) >= abs(vy):
            ch = 0 if vx > 0 else 1
        else:
            ch = 2 if vy > 0 else 3
        ix = math.floor((0.5 * (x0 + x1) - grid.x_min) / grid.cell)
        iy = math.floor((0.5 * (y0 + y1) - grid.y_min) / grid.cell)
        clipped = not (0 <= ix < grid.nx and 0 <= iy < grid.ny)
        ix, iy = min(max(ix, 0), grid.nx - 1), min(max(iy, 0), grid.ny - 1)
        votes.append((k, (iy * grid.nx + ix) * 4 + ch, clipped))
    return votes


ORACLE_GRID = GridSpec(-1.0, 2.0, -0.5, 1.5, cell=0.5)
ORACLE_DICT = Dictionary(atoms=np.random.default_rng(12).normal(size=(5, ORACLE_GRID.dim)))

# Steps on a quarter-meter lattice make ties, reversals and standstills
# common; free float steps cover the rest. Starts range well past the grid.
_lattice_step = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda s: (0.25 * s[0], 0.25 * s[1]))
_float_step = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
_trajectories = st.tuples(
    st.tuples(st.floats(-3.0, 4.0), st.floats(-2.5, 3.5)),
    st.lists(st.one_of(_lattice_step, _float_step), min_size=1, max_size=25),
).map(lambda a: traj_from_xy(np.cumsum(np.vstack((a[0], a[1])), axis=0), dt=0.5))

# One walk with a tie, -x and -y steps, a standstill mid-way and midpoints off the grid.
_ALL_CASES = traj_from_xy(
    [[-2.0, 0.0], [-1.5, 0.5], [-1.5, 0.5], [-2.0, 0.5], [-2.0, -1.5], [0.5, -1.5], [3.0, 2.5]], dt=0.5
)


def oracle_scores(traj):
    """(n, K) score of each point under each ORACLE_DICT atom, from the scalar pair rule."""
    scores = np.zeros((len(traj), ORACLE_DICT.k))
    for k, idx, _ in oracle_pairs(traj, ORACLE_GRID):
        scores[k] = ORACLE_DICT.atoms[:, idx]
    scores[-1] = scores[-2]
    return scores


def rescan_segments(scores, min_len):
    """The merge loop that relabels the points and rescans all the labels after every merge."""
    labels = np.argmax(scores, axis=1)

    def runs_of(labels):
        bounds = [0] + [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]] + [len(labels)]
        return [(int(labels[a]), a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    runs = runs_of(labels)
    while len(runs) > 1:
        short = [r for r in runs if r[2] - r[1] < min_len]
        if not short:
            break
        atom, start, stop = min(short, key=lambda r: (r[2] - r[1], r[1]))
        pos = runs.index((atom, start, stop))
        neighbors = [runs[p][0] for p in (pos - 1, pos + 1) if 0 <= p < len(runs)]
        labels[start:stop] = max(neighbors, key=lambda a: scores[start:stop, a].sum())
        runs = runs_of(labels)
    return [Segment(a, start, stop) for a, start, stop in runs]


class TestPairRuleOracle:
    @settings(max_examples=80, deadline=None)
    @given(traj=_trajectories)
    @example(traj=_ALL_CASES)
    def test_featurize_matches_scalar_rule(self, traj):
        votes = oracle_pairs(traj, ORACLE_GRID)
        expected = np.zeros(ORACLE_GRID.dim)
        for _, idx, _ in votes:
            expected[idx] += 1.0
        alone = votes_of([traj], ORACLE_GRID)
        assert alone.n_clipped == sum(clipped for _, _, clipped in votes)
        feat = featurize(alone, ORACLE_GRID.dim)[0]
        assert np.array_equal(feat, expected / np.linalg.norm(expected) if votes else expected)

    @settings(max_examples=80, deadline=None)
    @given(traj=_trajectories)
    @example(traj=_ALL_CASES)
    def test_segment_matches_scalar_rule(self, traj):
        # With min_len=1 nothing is merged, so each run is a run of the
        # per-point argmax of the oracle's scores.
        scores = oracle_scores(traj)
        labels = np.argmax(scores, axis=1)
        bounds = [0] + [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]] + [len(labels)]
        expected = [Segment(int(labels[a]), a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        assert segments_of(traj, ORACLE_DICT, ORACLE_GRID, min_len=1) == expected


# Standstills score zero under every atom, so a short run of them scores
# its two neighbors' atoms the same: the left neighbor wins the tie.
_TIED_NEIGHBORS = traj_from_xy(
    [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, -0.5], [0.0, -0.5], [0.5, -0.25], [0.5, -0.25], [0.75, 0.25],
     [0.75, 0.25]],
    dt=0.5,
)


class TestSegmentMerges:
    @settings(max_examples=120, deadline=None)
    @given(traj=_trajectories, min_len=st.integers(2, 5))
    @example(traj=_ALL_CASES, min_len=3)
    @example(traj=_TIED_NEIGHBORS, min_len=2)
    def test_matches_relabel_and_rescan(self, traj, min_len):
        expected = rescan_segments(oracle_scores(traj), min_len)
        assert segments_of(traj, ORACLE_DICT, ORACLE_GRID, min_len=min_len) == expected


_SHORT = [traj_from_xy(np.empty((0, 2)), dt=0.5, id="empty"), traj_from_xy([[0.5, 0.5]], dt=0.5, id="single")]


class TestStackedParity:
    """A one-trajectory stack gives that trajectory's rows of the full stack, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        trajs=st.lists(st.one_of(_trajectories, st.sampled_from(_SHORT)), min_size=1, max_size=8),
        min_len=st.integers(1, 5),
    )
    @example(trajs=[_SHORT[0], _ALL_CASES, _SHORT[1], _TIED_NEIGHBORS, _SHORT[0]], min_len=2)
    def test_matches_one_trajectory_at_a_time(self, trajs, min_len):
        votes = votes_of(trajs, ORACLE_GRID)
        X = featurize(votes, ORACLE_GRID.dim)
        alone = [votes_of([traj], ORACLE_GRID) for traj in trajs]
        for row, one in zip(X, alone):
            assert featurize(one, ORACLE_GRID.dim)[0].tobytes() == row.tobytes()
        assert votes.n_clipped == sum(one.n_clipped for one in alone)
        rows = [t for t, traj in enumerate(trajs) if len(traj) >= 2]
        expected = [segment(alone[t], ORACLE_DICT, min_len)[0] for t in rows]
        assert segment(votes, ORACLE_DICT, min_len, rows) == expected

    def test_flat_points_rejected(self):
        xy, offsets = stacked([_ALL_CASES])
        with pytest.raises(ValueError, match=r"stacked points must be \(N, 2\), got shape \(\d+,\)"):
            sparse_coding.pair_votes(xy.ravel(), offsets, ORACLE_GRID)

    def test_short_trajectory_not_segmented(self):
        votes = votes_of([_ALL_CASES, _SHORT[1]], ORACLE_GRID)
        with pytest.raises(TrajectoryError, match="at least 2 points"):
            segment(votes, ORACLE_DICT)
        assert len(segment(votes, ORACLE_DICT, rows=[0])) == 1

    def test_short_trajectory_named_by_its_row(self):
        votes = votes_of([_ALL_CASES, _SHORT[1], _SHORT[0]], ORACLE_GRID)
        with pytest.raises(TrajectoryError, match="stacked trajectory 2 has 0 points"):
            segment(votes, ORACLE_DICT, rows=[0, 2, 1])


def segs(*atoms, length=3):
    """Consecutive segments of ``length`` points on the given atoms."""
    return [Segment(a, length * n, length * (n + 1)) for n, a in enumerate(atoms)]


class TestSegmentPairs:
    def test_adjacent_pairs(self):
        s = segs(0, 2, 1)
        assert sparse_coding.segment_pairs(s) == [(s[0], s[1]), (s[1], s[2])]

    def test_one_segment_pairs_with_itself(self):
        s = segs(4)
        assert sparse_coding.segment_pairs(s) == [(s[0], s[0])]

    def test_no_segments_no_pairs(self):
        assert sparse_coding.segment_pairs([]) == []


class TestBuildTransitions:
    def test_single_pair(self):
        T = build_transitions([segs(1, 2)], k_atoms=3)
        assert T[1, 2] == 1
        assert T.sum() == 1

    def test_empty(self):
        assert build_transitions([], k_atoms=4).sum() == 0

    def test_hand_counts(self):
        T = build_transitions([segs(0, 1), segs(0, 1), segs(1, 0)], k_atoms=2)
        assert T[0, 1] == 2
        assert T[1, 0] == 1
        assert T.sum() == 3

    def test_single_segment_self_pair(self):
        T = build_transitions([segs(5)], k_atoms=6)
        assert T[5, 5] == 1

    def test_total_count_invariant(self):
        rng = np.random.default_rng(10)
        seglists = []
        expected = 0
        for _ in range(50):
            length = rng.integers(1, 6)
            seq = rng.integers(0, 4, size=length).tolist()
            seglists.append(segs(*seq))
            if length == 1:
                expected += 1
            else:
                expected += len(set(zip(seq[:-1], seq[1:])))
        assert build_transitions(seglists, k_atoms=4).sum() == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"atom index out of range for K=3: \[0, 7\]"):
            build_transitions([segs(0, 7)], k_atoms=3)
