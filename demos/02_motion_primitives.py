"""Learning motion primitives from synthetic corner trajectories.

Generates a small corpus at a 60-degree corner, maps everything into the
curbside frame, learns a sparse-coding dictionary, and shows how the
trajectories segment into primitives and transitions.
"""

import numpy as np

from tasnsc import GridSpec, build_transitions, featurize, learn_dictionary, segment
from tasnsc.geometry import curbside_stack
from tasnsc.sparse_coding import pair_votes
from tasnsc.synthgen import generate, scene_b


def main():
    scene = scene_b()
    dataset = generate(scene, 60)
    frame = scene.frame()
    print(f"{len(dataset)} trajectories at a {np.degrees(scene.alpha):.0f} degree corner")

    # Every trajectory's points, stacked: trajectory t is xy[offsets[t]:offsets[t + 1]].
    xy, offsets = curbside_stack(frame, dataset.trajectories)
    lo = np.floor(xy.min(axis=0)) - 1
    hi = np.ceil(xy.max(axis=0)) + 1
    grid = GridSpec(lo[0], hi[0], lo[1], hi[1], cell=1.0)
    print(f"grid: {grid.nx} x {grid.ny} cells x 4 direction channels = {grid.dim} features")

    votes = pair_votes(xy, offsets, grid)
    features = featurize(votes, grid.dim)
    dictionary, codes = learn_dictionary(features, k_atoms=8, lam=0.1, iters=200, seed=0)
    print(f"\nobjective: {codes.objective[0]:.3f} -> {codes.objective[-1]:.3f}")
    print(f"codes nonnegative: {bool(np.all(codes.matrix >= 0))}")
    print(f"mean active atoms per trajectory: {np.mean((codes.matrix > 1e-6).sum(axis=0)):.2f}")

    seglists = segment(votes, dictionary)
    print("\nsample segmentations (intent: atom runs):")
    for traj, segs in list(zip(dataset, seglists))[:6]:
        runs = " -> ".join(f"atom{s.atom}[{len(s)}pts]" for s in segs)
        print(f"  {traj.intent:>8}: {runs}")

    transitions = build_transitions(seglists, dictionary.k)
    pairs = np.argwhere(transitions > 0)
    print(f"\n{len(pairs)} observed transitions over {dictionary.k} atoms:")
    for i, j in pairs:
        print(f"  atom {i} -> atom {j}: {transitions[i, j]} trajectories")


if __name__ == "__main__":
    main()
