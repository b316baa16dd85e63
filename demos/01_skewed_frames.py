"""Contravariant components in a skewed curbside frame.

Walks through the coordinate machinery: build a frame from two curb
directions, map points to their contravariant components, verify the
round trip, and watch the affine properties hold at an oblique angle.
"""

import numpy as np

from tasnsc import curbside_transform, frame_from_curbs, from_curbside, to_curbside


def main():
    # An intersection corner at (12, -7); the curbs meet at 60 degrees.
    frame = frame_from_curbs(
        origin=(12.0, -7.0),
        dir1=(np.cos(0.3), np.sin(0.3)),
        dir2=(np.cos(0.3 + np.pi / 3), np.sin(0.3 + np.pi / 3)),
    )
    print(f"curb angle: {np.degrees(frame.alpha):.1f} degrees")
    print(f"e1 = {frame.e1.round(4)}, e2 = {frame.e2.round(4)}")

    # A point one meter along each curb has components (1, 1), not the
    # orthogonal projections you would get in a rectangular frame.
    p = frame.origin + frame.e1 + frame.e2
    comps = to_curbside(frame, p)
    print(f"\npoint {p.round(3)} -> contravariant components {comps.round(6)}")

    back = from_curbside(frame, comps)
    print(f"round trip error: {np.max(np.abs(back - p)):.2e} m")

    # The same map as an explicit affine matrix: the same coefficients,
    # evaluated the same way, so the bits agree exactly.
    T = curbside_transform(frame)
    print(f"\naffine map linear part:\n{T.linear.round(4)}")
    print(f"translation: {T.translation.round(4)}")
    print(f"matrix path agrees exactly: {np.array_equal(T.apply(p), comps)}")

    # Affine maps preserve midpoints and parallelism; that is what lets
    # motion learned at one corner angle transfer to another.
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-5, 5, (2, 2))
    mid_image = to_curbside(frame, 0.5 * (a + b))
    image_mid = 0.5 * (to_curbside(frame, a) + to_curbside(frame, b))
    print(f"\nmidpoint preservation error: {np.max(np.abs(mid_image - image_mid)):.2e}")

    seg1 = to_curbside(frame, b) - to_curbside(frame, a)
    c = rng.uniform(-5, 5, 2)
    seg2 = to_curbside(frame, c + (b - a)) - to_curbside(frame, c)
    cross = seg1[0] * seg2[1] - seg1[1] * seg2[0]
    print(f"parallel segments stay parallel (cross product): {cross:.2e}")


if __name__ == "__main__":
    main()
