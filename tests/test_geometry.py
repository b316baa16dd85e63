import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasnsc.geometry import (
    AffineMap2D,
    CurbsideFrame,
    DegenerateFrameError,
    curbside_stack,
    curbside_transform,
    frame_from_config,
    frame_from_curbs,
    frame_to_config,
    from_curbside,
    identity_frame,
    load_frame,
    to_curbside,
    transform_trajectory,
)
from tasnsc.trajectory import Trajectory

SQ3 = np.sqrt(3.0)


def cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def skew60():
    return frame_from_curbs((0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2))


def random_frame(rng):
    """Random frame with curb angle uniform in (10, 170) degrees."""
    origin = rng.uniform(-20, 20, 2)
    phi = rng.uniform(0, 2 * np.pi)
    alpha = np.radians(rng.uniform(10.0, 170.0))
    d1 = np.array([np.cos(phi), np.sin(phi)])
    d2 = np.array([np.cos(phi + alpha), np.sin(phi + alpha)])
    return frame_from_curbs(origin, d1, d2)


def trig_oracle(frame, p):
    """Contravariant components from the closed-form trig identities.

    x' = r sin(alpha - theta) / sin(alpha), y' = r sin(theta) / sin(alpha),
    with theta measured from e1 toward e2, valid over [0, 2*pi).
    """
    e1, e2 = frame.e1, frame.e2
    perp = e2 - (e1 @ e2) * e1  # unit normal to e1 on the e2 side
    perp /= np.linalg.norm(perp)
    sin_a = np.sqrt(1.0 - (e1 @ e2) ** 2)
    d = np.asarray(p, dtype=float) - frame.origin
    r = np.linalg.norm(d)
    theta = np.arctan2(perp @ d, e1 @ d)
    return np.array([r * np.sin(frame.alpha - theta) / sin_a, r * np.sin(theta) / sin_a])


class TestFrameFromCurbs:
    def test_orthogonal_normalization(self):
        f = frame_from_curbs((0, 0), (2, 0), (0, 3))
        assert np.allclose(f.e1, [1, 0])
        assert np.allclose(f.e2, [0, 1])
        assert f.alpha == pytest.approx(np.pi / 2)

    def test_45_degrees(self):
        f = frame_from_curbs((0, 0), (1, 0), (1, 1))
        assert f.alpha == pytest.approx(np.pi / 4)

    def test_antiparallel_rejected(self):
        with pytest.raises(DegenerateFrameError):
            frame_from_curbs((0, 0), (1, 0), (-1, 0))

    def test_zero_direction_rejected(self):
        with pytest.raises(DegenerateFrameError):
            frame_from_curbs((0, 0), (1e-10, 0), (0, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_origin_rejected(self, bad):
        with pytest.raises(DegenerateFrameError, match="origin must be finite"):
            frame_from_curbs((bad, 0), (1, 0), (0, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_direction_rejected(self, bad):
        with pytest.raises(DegenerateFrameError, match="non-finite length"):
            frame_from_curbs((0, 0), (1, 0), (bad, 1))

    def test_unit_axes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = random_frame(rng)
            assert abs(np.linalg.norm(f.e1) - 1) < 1e-12
            assert abs(np.linalg.norm(f.e2) - 1) < 1e-12
            assert 0 < f.alpha < np.pi


class TestCurbsideFrame:
    @pytest.mark.parametrize("e2", [(1.0, 0.0), (-1.0, 0.0)], ids=["parallel", "antiparallel"])
    def test_parallel_axes_rejected(self, e2):
        # Such a frame has a singular basis: no point has curbside components.
        with pytest.raises(DegenerateFrameError, match="parallel or antiparallel"):
            CurbsideFrame(origin=(0.0, 0.0), e1=(1.0, 0.0), e2=e2)

    def test_angle_is_derived_not_given(self):
        with pytest.raises(TypeError, match="alpha"):
            CurbsideFrame(origin=(0.0, 0.0), e1=(1.0, 0.0), e2=(0.0, 1.0), alpha=0.3)
        assert CurbsideFrame(origin=(0.0, 0.0), e1=(1.0, 0.0), e2=(0.0, 1.0)).alpha == np.pi / 2


class TestCurbsideTransform:
    def test_skew_part_is_identity_when_orthogonal(self):
        f = frame_from_curbs((0, 0), (1, 0), (0, 1))
        T = curbside_transform(f)
        assert np.array_equal(T.linear, np.eye(2))

    def test_60_degree_example(self):
        # Independent oracle: solve x'*e1 + y'*e2 = p for the helper-frame
        # point (1, 1); equals (1 - 1/tan(60), 1/sin(60)).
        T = curbside_transform(skew60())
        out = T.apply((1.0, 1.0))
        assert out == pytest.approx([1 - 1 / SQ3, 2 / SQ3], abs=1e-9)
        assert out == pytest.approx([0.42265, 1.15470], abs=1e-5)

    def test_pure_translation(self):
        f = frame_from_curbs((5, 5), (1, 0), (0, 1))
        assert curbside_transform(f).apply((6.0, 7.0)) == pytest.approx([1.0, 2.0])

    def test_invertibility_guard(self):
        with pytest.raises(ValueError):
            AffineMap2D(np.zeros((2, 2)), np.zeros(2))


class TestToCurbside:
    def test_orthogonal_identity(self):
        f = identity_frame()
        assert to_curbside(f, (3.0, 4.0)) == pytest.approx([3.0, 4.0])

    def test_60_degree_example(self):
        assert to_curbside(skew60(), (1.0, 1.0)) == pytest.approx([1 - 1 / SQ3, 2 / SQ3], abs=1e-9)

    def test_origin_maps_to_zero(self):
        rng = np.random.default_rng(5)
        f = random_frame(rng)
        assert to_curbside(f, f.origin) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_reconstruction_identity(self):
        # Definition of contravariant components: x'*e1 + y'*e2 = p - origin.
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = random_frame(rng)
            p = rng.uniform(-30, 30, 2)
            c = to_curbside(f, p)
            assert c[0] * f.e1 + c[1] * f.e2 + f.origin == pytest.approx(p, abs=1e-9)


class TestFromCurbside:
    def test_round_trip(self):
        f = skew60()
        p = np.array([7.3, -2.1])
        assert from_curbside(f, to_curbside(f, p)) == pytest.approx(p, abs=1e-9)

    def test_zero_maps_to_origin(self):
        rng = np.random.default_rng(9)
        f = random_frame(rng)
        assert from_curbside(f, (0.0, 0.0)) == pytest.approx(f.origin)

    def test_one_basis_step(self):
        f = frame_from_curbs((0, 0), (1, 1), (0, 1))
        assert from_curbside(f, (1.0, 0.0)) == pytest.approx([0.70711, 0.70711], abs=1e-5)


class TestTransformTrajectory:
    def test_empty(self):
        traj = Trajectory(id="e", dt=0.5, times=np.empty(0), xy=np.empty((0, 2)))
        out = transform_trajectory(identity_frame(), traj)
        assert len(out) == 0

    def test_aligned_orthogonal_unchanged(self):
        traj = Trajectory(id="t", dt=0.5, times=[0, 0.5], xy=[[1, 2], [3, 4]])
        out = transform_trajectory(identity_frame(), traj)
        assert np.allclose(out.xy, traj.xy)
        assert np.allclose(out.times, traj.times)

    def test_collinearity_preserved(self):
        traj = Trajectory(id="c", dt=1.0, times=[0, 1, 2], xy=[[0, 0], [1, 2], [2, 4]])
        out = transform_trajectory(skew60(), traj)
        d1 = out.xy[1] - out.xy[0]
        d2 = out.xy[2] - out.xy[1]
        assert abs(cross2(d1, d2)) < 1e-9


class TestProperties:
    def test_round_trip_bulk(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_frame(rng)
            pts = rng.uniform(-50, 50, (500, 2))
            back = from_curbside(f, to_curbside(f, pts))
            assert np.max(np.abs(back - pts)) < 1e-9

    def test_trig_oracle_equivalence(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            f = random_frame(rng)
            p = rng.uniform(-30, 30, 2)
            assert to_curbside(f, p) == pytest.approx(trig_oracle(f, p), abs=1e-9)

    def test_affinity_collinearity_midpoint_parallelism(self):
        rng = np.random.default_rng(44)
        for _ in range(1000):
            f = random_frame(rng)
            a, b, c = rng.uniform(-20, 20, (3, 2))
            ta, tb = to_curbside(f, a), to_curbside(f, b)
            # Midpoints map to midpoints.
            assert to_curbside(f, 0.5 * (a + b)) == pytest.approx(0.5 * (ta + tb), abs=1e-9)
            # Collinear triples stay collinear.
            m = a + 0.37 * (b - a)
            tm = to_curbside(f, m)
            assert abs(cross2(tb - ta, tm - ta)) < 1e-9 * max(1.0, np.linalg.norm(tb - ta))
            # Parallel segments stay parallel.
            tc = to_curbside(f, c)
            td = to_curbside(f, c + (b - a))
            assert abs(cross2(tb - ta, td - tc)) < 1e-9 * max(1.0, np.linalg.norm(tb - ta))

    def test_matrix_and_solve_paths_agree(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            f = random_frame(rng)
            T = curbside_transform(f)
            pts = rng.uniform(-30, 30, (10, 2))
            assert np.max(np.abs(T.apply(pts) - to_curbside(f, pts))) < 1e-9


_coord = st.floats(-100.0, 100.0)


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        origin=st.tuples(_coord, _coord),
        heading=st.floats(0.0, 2.0 * math.pi),
        alpha_deg=st.floats(5.0, 175.0),
        points=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=20),
    )
    def test_from_curbside_inverts_to_curbside(self, origin, heading, alpha_deg, points):
        alpha = math.radians(alpha_deg)
        f = frame_from_curbs(
            origin, (math.cos(heading), math.sin(heading)), (math.cos(heading + alpha), math.sin(heading + alpha))
        )
        p = np.array(points)
        assert np.max(np.abs(from_curbside(f, to_curbside(f, p)) - p)) <= 1e-9


class TestStackedMap:
    def test_one_call_on_a_stack_is_bitwise_the_calls_per_trajectory(self):
        # curbside_stack maps the points of all trajectories in one call;
        # the solve treats each point on its own, so the bits must not
        # change. A single point is left out of the raw stack: LAPACK
        # solves one column on another path, which can round differently,
        # so curbside_stack maps it alone.
        rng = np.random.default_rng(46)
        for _ in range(30):
            f = random_frame(rng)
            parts = [rng.uniform(-60, 60, (n, 2)) for n in rng.choice([0, *range(2, 300)], 20)]
            stacked = to_curbside(f, np.vstack(parts))
            assert stacked.tobytes() == np.vstack([to_curbside(f, p) for p in parts]).tobytes()
            parts += [rng.uniform(-60, 60, (1, 2)) for _ in range(5)]
            rng.shuffle(parts)
            trajs = [Trajectory(id=str(k), dt=0.5, times=0.5 * np.arange(len(p)), xy=p) for k, p in enumerate(parts)]
            xy, offsets = curbside_stack(f, trajs)
            assert xy.tobytes() == np.vstack([to_curbside(f, p) for p in parts]).tobytes()
            assert offsets.tolist() == np.cumsum([0] + [len(p) for p in parts]).tolist()


class TestFrameConfig:
    def test_round_trip(self, tmp_path):
        f = skew60()
        path = tmp_path / "frame.json"
        with open(path, "w") as fh:
            json.dump(frame_to_config(f), fh)
        g = load_frame(path)
        assert np.allclose(g.origin, f.origin)
        assert np.allclose(g.e1, f.e1)
        assert np.allclose(g.e2, f.e2)
        assert g.alpha == pytest.approx(f.alpha)

    def test_angle_not_stored(self):
        assert "alpha" not in frame_to_config(skew60())

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"origin": [0, 0], "curb1": [1, 0]}')
        with pytest.raises(ValueError):
            load_frame(path)

    def test_exact_keys(self):
        cfg = frame_to_config(skew60())
        with pytest.raises(ValueError, match=re.escape("unknown keys ['alpha'], missing keys []")):
            frame_from_config({**cfg, "alpha": 1.0})
        with pytest.raises(ValueError, match="must be a JSON object"):
            frame_from_config([cfg["origin"], cfg["curb1"], cfg["curb2"]])
