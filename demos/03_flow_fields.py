"""GP velocity flow fields and likelihood-based pattern scoring.

Fits two competing flow fields (an eastbound lane and a left-turning
lane), samples their posterior means along a probe line, and shows how an
observed trajectory's velocities pick out the matching pattern.
"""

import numpy as np

from tasnsc import Kernel, MotionPattern, fit, pattern_log_likelihood, posterior


def turning_flow(points):
    """Velocity field that swings from eastbound to northbound around x=0."""
    angle = np.clip(points[:, 0], -2.0, 2.0) / 2.0 * (np.pi / 4) + np.pi / 4
    return 1.3 * np.cos(angle), 1.3 * np.sin(angle)


def main():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-4, 4, (120, 2))
    kernel = Kernel(length_x=2.0, length_y=2.0, signal_sd=1.0, noise_sd=0.15)

    east = MotionPattern(atoms=(0, 1), flow=fit(pts, np.tile([1.3, 0.0], (len(pts), 1)), kernel), prior_weight=0.5)
    turning = MotionPattern(atoms=(0, 2), flow=fit(pts, np.column_stack(turning_flow(pts)), kernel), prior_weight=0.5)

    # Every GP query is a batch of points (m, 2): the whole probe line at once.
    probe = np.column_stack((np.linspace(-3.0, 3.0, 5), np.zeros(5)))
    mean, var = posterior(turning.flow, probe)
    print("posterior mean of the turning flow along y = 0:")
    for (x, _), (mx, my), sx in zip(probe, mean, var):
        heading = np.degrees(np.arctan2(my, mx))
        print(f"  x={x:+.1f}: v=({mx:+.2f}, {my:+.2f}) m/s, heading {heading:6.1f} deg, sd {np.sqrt(sx):.3f}")

    # An observation that follows the turn: positions along y=0, velocities
    # from the true turning field plus noise.
    obs_pts = np.column_stack((np.linspace(-2, 2, 6), np.zeros(6)))
    ovx, ovy = turning_flow(obs_pts)
    observed = np.column_stack((obs_pts, ovx + rng.normal(0, 0.1, 6), ovy + rng.normal(0, 0.1, 6)))

    # Scoring takes a stack of observations and their sample counts, and
    # gives one log-likelihood per observation; here the stack holds one.
    counts = [len(observed)]
    ll_turn = pattern_log_likelihood(turning, observed, counts)[0]
    ll_east = pattern_log_likelihood(east, observed, counts)[0]
    print(f"\nlog-likelihood under the turning pattern:  {ll_turn:8.2f}")
    print(f"log-likelihood under the eastbound pattern: {ll_east:8.2f}")
    gap = ll_turn - ll_east
    print(f"the observation prefers the turning flow by {gap:.1f} nats")


if __name__ == "__main__":
    main()
