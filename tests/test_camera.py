"""Tests for the FPV camera rasterizer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.env import camera as camera_module
from repro.env.camera import (
    CameraParams,
    FpvCamera,
    decode_image_u8,
    encode_image_u8,
    floor_offsets,
    render_lanes,
)
from repro.env.geometry import Pose2


@pytest.fixture
def camera():
    return FpvCamera(CameraParams(width=48, height=32, texture_noise=0.0), seed=1)


class TestCameraParams:
    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            CameraParams(width=2, height=2)

    def test_rejects_extreme_fov(self):
        with pytest.raises(ValueError):
            CameraParams(fov_degrees=200.0)

    def test_default_fov_is_90(self):
        assert CameraParams().fov_degrees == 90.0


class TestRender:
    def test_shape_and_range(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 0, 0))
        assert image.shape == (32, 48)
        assert image.dtype == np.float32
        assert image.min() >= 0.0
        assert image.max() <= 1.0

    def test_centered_view_symmetric(self, tunnel):
        camera = FpvCamera(CameraParams(width=48, height=32, texture_noise=0.0), seed=1)
        image = camera.render(tunnel, Pose2(10, 0, 0))
        left = image[:, :24]
        right = image[:, 24:][:, ::-1]
        assert np.abs(left - right).mean() < 0.05

    def test_offset_view_asymmetric(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 1.0, 0))
        left = image[:, :24].mean()
        right = image[:, 24:].mean()
        assert abs(left - right) > 0.01

    def test_yawed_view_differs_from_straight(self, camera, tunnel):
        straight = camera.render(tunnel, Pose2(10, 0, 0))
        yawed = camera.render(tunnel, Pose2(10, 0, math.radians(20)))
        assert np.abs(straight - yawed).mean() > 0.02

    def test_near_wall_fills_more_of_frame(self, camera, tunnel):
        far = camera.render(tunnel, Pose2(5, 0, 0))
        # Facing the side wall from close: large bright wall area.
        near = camera.render(tunnel, Pose2(5, 1.0, math.pi / 2))
        wall_shade_near = (near > 0.4).mean()
        wall_shade_far = (far > 0.4).mean()
        assert wall_shade_near > wall_shade_far

    def test_trail_visible_on_floor(self, camera, tunnel):
        image = camera.render(tunnel, Pose2(10, 0, 0))
        bottom_center = image[-6:, 20:28]
        bottom_sides = image[-6:, :8]
        # The centerline trail stripe (0.95 shade) dominates the center
        # bottom rows and is absent from the side columns.
        assert (bottom_center > 0.9).mean() > 0.5
        assert (bottom_sides > 0.9).mean() < 0.2

    def test_trail_shifts_with_offset(self, camera, tunnel):
        # Drone left of center: the trail appears on the right half.
        image = camera.render(tunnel, Pose2(10, 1.0, 0))
        bottom = image[-8:]
        right_trail = (bottom[:, 24:] > 0.8).sum()
        left_trail = (bottom[:, :24] > 0.8).sum()
        assert right_trail > left_trail

    def test_deterministic_given_seed(self, tunnel):
        a = FpvCamera(CameraParams(texture_noise=0.05), seed=9).render(tunnel, Pose2(10, 0, 0))
        b = FpvCamera(CameraParams(texture_noise=0.05), seed=9).render(tunnel, Pose2(10, 0, 0))
        np.testing.assert_array_equal(a, b)

    def test_noise_changes_with_reset_seed(self, tunnel):
        camera = FpvCamera(CameraParams(texture_noise=0.05), seed=9)
        a = camera.render(tunnel, Pose2(10, 0, 0))
        camera.reset(seed=10)
        b = camera.render(tunnel, Pose2(10, 0, 0))
        assert np.abs(a - b).max() > 0.0


class TestImageCodec:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        image = rng.random((12, 16)).astype(np.float32)
        decoded = decode_image_u8(encode_image_u8(image), 12, 16)
        np.testing.assert_allclose(decoded, image, atol=1.0 / 255.0)

    def test_encode_clips(self):
        image = np.array([[-1.0, 2.0]], dtype=np.float32)
        decoded = decode_image_u8(encode_image_u8(image), 1, 2)
        assert decoded[0, 0] == 0.0
        assert decoded[0, 1] == 1.0

    def test_decode_wrong_size_raises(self):
        with pytest.raises(ValueError):
            decode_image_u8(b"\x00" * 10, 4, 4)

    def test_byte_length(self):
        image = np.zeros((8, 6), dtype=np.float32)
        assert len(encode_image_u8(image)) == 48


def _naive_offsets(world, points: np.ndarray) -> np.ndarray:
    """Inline reference floor shader: re-derives the segment geometry from
    the polyline and takes a stacked ``(P, S, 2)`` brute-force argmin."""
    pts = world.centerline.points
    dirs = np.diff(pts, axis=0)
    lens = np.sqrt((dirs**2).sum(axis=1))
    units = dirs / lens[:, None]
    rel = points[:, None, :] - pts[None, :-1, :]
    t = np.clip((rel * units[None, :, :]).sum(axis=2), 0.0, lens[None, :])
    closest = pts[None, :-1, :] + t[..., None] * units[None, :, :]
    diff = points[:, None, :] - closest
    idx = np.argmin((diff**2).sum(axis=2), axis=1)
    rows = np.arange(points.shape[0])
    normal = np.column_stack([-units[idx, 1], units[idx, 0]])
    return (diff[rows, idx] * normal).sum(axis=1)


def _corridor_points(world, count: int, seed: int) -> np.ndarray:
    """``count`` random points inside the corridor of ``world``."""
    rng = np.random.default_rng(seed)
    line = world.centerline
    s = rng.uniform(0.0, line.length, count)
    d = rng.uniform(-world.half_width, world.half_width, count)
    return np.array(
        [line.point_at_arclength(a) + b * line.normal_at_arclength(a) for a, b in zip(s, d)]
    )


class TestCenterlineOffsetsCache:
    """``floor_offsets``, the one floor shader, against a naive reference
    that re-derives the cached per-segment centerline arrays."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        # Records the size of every exact (brute-force) solve, showing
        # which branch of ``floor_offsets`` produced the result.
        calls: list[int] = []
        exact = camera_module._floor_offsets_exact

        def spy(world, px_, py_):
            calls.append(px_.shape[0])
            return exact(world, px_, py_)

        monkeypatch.setattr(camera_module, "_floor_offsets_exact", spy)
        return calls

    @staticmethod
    def _check(world, points: np.ndarray) -> None:
        got = floor_offsets(world, points[:, 0].copy(), points[:, 1].copy())
        np.testing.assert_array_equal(got, _naive_offsets(world, points))

    def test_offsets_match_fresh_geometry(self, tunnel, exact_calls):
        # 64 points x 50 segments <= 20000: straight to the exact solve.
        self._check(tunnel, _corridor_points(tunnel, 64, seed=7))
        assert exact_calls == [64]

    def test_large_input_takes_prefilter(self, s_shape, exact_calls):
        self._check(s_shape, _corridor_points(s_shape, 600, seed=8))
        assert exact_calls == []

    def test_guard_falls_back_to_exact(self, tunnel, exact_calls):
        # A point far off a straight course is almost equidistant from
        # many collinear segments, so the float32 prefilter cannot prove
        # its window holds the nearest one and the whole call reruns.
        points = np.vstack([_corridor_points(tunnel, 600, seed=9), [[25.3, 1.0e4]]])
        self._check(tunnel, points)
        assert exact_calls == [601]

    def test_scenario_world_with_obstacles(self, exact_calls):
        from repro.scenario import ObstacleSpec, Scenario, world_from_scenario
        from repro.scenario.schema import GeometrySpec

        world = world_from_scenario(
            Scenario(
                name="floor-shader",
                geometry=GeometrySpec(family="sine", length=60.0, width=4.0, periods=2.0),
                obstacles=(
                    ObstacleSpec(s=20.0, d=0.9, radius=0.4),
                    ObstacleSpec(s=40.0, d=-0.9, radius=0.4, shape="box"),
                ),
            )
        )
        assert world.obstacles
        self._check(world, _corridor_points(world, 32, seed=10))
        self._check(world, _corridor_points(world, 600, seed=11))
        assert exact_calls == [32]

    def test_render_is_one_lane_plus_noise(self, tunnel):
        pose = Pose2(10, 0.3, 0.1)
        camera = FpvCamera(CameraParams(texture_noise=0.05), seed=5)
        lane = render_lanes(
            camera, tunnel, np.array([pose.x]), np.array([pose.y]), np.array([pose.yaw])
        )[0]
        noise = np.random.default_rng(5).normal(0.0, 0.05, lane.shape).astype(np.float32)
        np.testing.assert_array_equal(
            camera.render(tunnel, pose), np.clip(lane + noise, 0.0, 1.0)
        )

    def test_render_unchanged_by_cache(self, camera, tunnel):
        # Rendering twice from the same pose is deterministic with a
        # fixed-seed camera and the cached world geometry.
        camera.reset(seed=5)
        first = camera.render(tunnel, Pose2(10, 0.3, 0.1))
        camera.reset(seed=5)
        second = camera.render(tunnel, Pose2(10, 0.3, 0.1))
        np.testing.assert_array_equal(first, second)
