"""Planar geometry primitives used by the environment simulator.

The UAV experiments in the paper are corridor-navigation tasks where the
relevant geometry is planar (the drone holds altitude); this module provides
the 2D primitives the worlds, physics, sensors and renderer are built on:
segments, rays, poses, distance queries and ray casting.

All heavy queries accept numpy arrays so the renderer can cast a whole
camera's worth of rays in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12

#: Lanes per ray-cast block.  The (lanes, W, S) intermediate planes are
#: the whole cost of the ray solve; two lanes' worth (~250 KB at W=48,
#: S=322) stays cache-resident, while a 16-lane batch spills to DRAM and
#: measures >2x slower.
_CAST_LANE_CHUNK = 2


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def angle_difference(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` between two angles."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Pose2:
    """A planar pose: position ``(x, y)`` and heading ``yaw`` (radians).

    ``yaw = 0`` points along +x; positive yaw rotates counter-clockwise.
    """

    x: float
    y: float
    yaw: float

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    @property
    def forward(self) -> np.ndarray:
        """Unit vector in the heading direction."""
        return np.array([math.cos(self.yaw), math.sin(self.yaw)])

    @property
    def left(self) -> np.ndarray:
        """Unit vector 90 degrees counter-clockwise from the heading."""
        return np.array([-math.sin(self.yaw), math.cos(self.yaw)])

    def transform_to_body(self, point: np.ndarray) -> np.ndarray:
        """Express a world-frame point in this pose's body frame."""
        delta = np.asarray(point, dtype=float) - self.position
        return np.array([float(delta @ self.forward), float(delta @ self.left)])

    def transform_to_world(self, point: np.ndarray) -> np.ndarray:
        """Express a body-frame point in the world frame."""
        point = np.asarray(point, dtype=float)
        return self.position + point[0] * self.forward + point[1] * self.left


@dataclass(frozen=True)
class Segment2:
    """A 2D line segment from ``a`` to ``b`` (each an ``(x, y)`` pair)."""

    ax: float
    ay: float
    bx: float
    by: float

    @property
    def a(self) -> np.ndarray:
        return np.array([self.ax, self.ay])

    @property
    def b(self) -> np.ndarray:
        return np.array([self.bx, self.by])

    @property
    def length(self) -> float:
        return float(math.hypot(self.bx - self.ax, self.by - self.ay))

    def point_at(self, t: float) -> np.ndarray:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return np.array(
            [self.ax + t * (self.bx - self.ax), self.ay + t * (self.by - self.ay)]
        )

    def distance_to_point(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the closest point on the
        segment."""
        p = np.asarray(point, dtype=float)
        d = self.b - self.a
        denom = float(d @ d)
        if denom < _EPS:
            return float(np.linalg.norm(p - self.a))
        t = float(np.clip((p - self.a) @ d / denom, 0.0, 1.0))
        closest = self.a + t * d
        return float(np.linalg.norm(p - closest))


@dataclass(frozen=True)
class Ray2:
    """A 2D ray: origin plus unit direction."""

    ox: float
    oy: float
    dx: float
    dy: float

    @staticmethod
    def from_pose(pose: Pose2, relative_angle: float = 0.0) -> "Ray2":
        theta = pose.yaw + relative_angle
        return Ray2(pose.x, pose.y, math.cos(theta), math.sin(theta))


class SegmentSoup:
    """A batch of segments stored column-wise for vectorized queries.

    The worlds store their wall geometry in one soup so the depth sensor
    and camera renderer can intersect many rays against all walls with
    numpy broadcasting rather than Python loops.
    """

    def __init__(self, segments: list[Segment2]):
        if not segments:
            raise ValueError("SegmentSoup requires at least one segment")
        self.segments = list(segments)
        self._ax = np.array([s.ax for s in segments])
        self._ay = np.array([s.ay for s in segments])
        self._dx = np.array([s.bx - s.ax for s in segments])
        self._dy = np.array([s.by - s.ay for s in segments])
        denom = self._dx * self._dx + self._dy * self._dy
        self._denom = np.where(denom < _EPS, 1.0, denom)  # squared lengths

    def __len__(self) -> int:
        return len(self.segments)

    def min_distance(self, point: np.ndarray) -> float:
        """Distance from ``point`` to the nearest segment in the soup."""
        p = np.asarray(point, dtype=float)
        return float(self.min_distances(p[:1], p[1:2])[0])

    def min_distances(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Distance from each of K points to its nearest segment → (K,)."""
        dx, dy = self._dx, self._dy
        rx = px[:, None] - self._ax  # (K, S)
        ry = py[:, None] - self._ay
        t = (rx * dx + ry * dy) / self._denom
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)  # np.clip, minus its overhead
        cx = rx - t * dx
        cy = ry - t * dy
        return np.sqrt(np.min(cx * cx + cy * cy, axis=1))

    def cast_rays(
        self,
        origin: np.ndarray,
        angles: np.ndarray,
        max_range: float = 1e9,
    ) -> np.ndarray:
        """Cast rays from ``origin`` at the given world-frame ``angles``.

        Returns an array of hit distances, one per angle; misses report
        ``max_range``.  This is the one-lane case of :meth:`cast_ray_lanes`.
        """
        origin = np.asarray(origin, dtype=float)
        angles = np.atleast_1d(np.asarray(angles, dtype=float))
        return self.cast_ray_lanes(origin[:1], origin[1:2], angles[None, :], max_range)[0]

    def cast_ray_lanes(
        self,
        origins_x: np.ndarray,
        origins_y: np.ndarray,
        angles: np.ndarray,
        max_range: float,
    ) -> np.ndarray:
        """Cast (K, W) world-frame ``angles`` from K origins → (K, W) hits.

        Lanes are solved in cache-sized blocks; each lane's arithmetic is
        independent, so the blocking cannot change any bit, and a lane's
        distances equal a one-lane :meth:`cast_rays` from its origin.
        """
        n_lanes, n_rays = angles.shape
        block = min(n_lanes, _CAST_LANE_CHUNK)
        # Every block reuses one set of (block, W, S) planes: allocating
        # them per block cycles megabytes through the allocator, which
        # hands them back to the OS and page-faults them in again.
        planes = np.empty((4, block, n_rays, len(self)))
        mask = np.empty(planes.shape[1:], dtype=bool)
        out = np.empty_like(angles)
        for lo in range(0, n_lanes, block):
            hi = min(lo + block, n_lanes)
            out[lo:hi] = self._cast_block(
                origins_x[lo:hi],
                origins_y[lo:hi],
                angles[lo:hi],
                max_range,
                planes[:, : hi - lo],
                mask[: hi - lo],
            )
        return out

    def _cast_block(
        self,
        origins_x: np.ndarray,
        origins_y: np.ndarray,
        angles: np.ndarray,
        max_range: float,
        planes: np.ndarray,
        mask: np.ndarray,
    ) -> np.ndarray:
        """One block of the ray solve, broadcast over (lanes, rays, segments).

        Solves ``origin + t*rd == a + u*sd`` for ``t >= 0``, ``0 <= u <= 1``.
        The (K, W, S) planes dominate the cost, so the solve is written as
        in-place updates over the four caller-owned ``planes`` and the
        boolean ``mask``.
        """
        ax, ay, dx, dy = self._ax, self._ay, self._dx, self._dy
        rdx = np.cos(angles)[:, :, None]  # (K, W, 1)
        rdy = np.sin(angles)[:, :, None]
        sx = ax[None, None, :] - origins_x[:, None, None]  # (K, 1, S)
        sy = ay[None, None, :] - origins_y[:, None, None]
        denom, t, u, scratch = planes
        np.multiply(rdx, dy, out=denom)
        np.multiply(rdy, dx, out=t)
        denom -= t
        safe = np.greater(np.abs(denom, out=scratch), _EPS, out=mask)
        denom[~safe] = 1.0  # np.where(safe, denom, 1.0)
        t_num = sx * dy[None, None, :] - sy * dx[None, None, :]  # (K, 1, S)
        np.divide(t_num, denom, out=t)
        np.multiply(sx, rdy, out=u)
        np.multiply(sy, rdx, out=scratch)
        u -= scratch
        u /= denom
        valid = safe
        valid &= t >= 0.0
        valid &= u >= 0.0
        valid &= u <= 1.0
        np.logical_not(valid, out=valid)
        t[valid] = max_range  # np.where(valid, t, max_range)
        return np.minimum(t.min(axis=2), max_range)

    def cast_ray(
        self, origin: np.ndarray, angle: float, max_range: float = 1e9
    ) -> float:
        """Scalar convenience wrapper over :meth:`cast_rays`."""
        return float(self.cast_rays(origin, np.array([angle]), max_range)[0])


class Polyline:
    """A 2D polyline with arclength parameterization.

    The worlds use a polyline centerline to define corridor geometry and to
    answer "how far along the course is the drone, and how far off-center?"
    — the coordinates the paper's figures plot.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] < 2:
            raise ValueError("Polyline requires an (N, 2) array with N >= 2")
        self.points = points
        deltas = np.diff(points, axis=0)
        self._seg_lengths = np.sqrt((deltas**2).sum(axis=1))
        if np.any(self._seg_lengths < _EPS):
            raise ValueError("Polyline contains a degenerate segment")
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_lengths)])
        self._dirs = deltas / self._seg_lengths[:, None]
        # Contiguous per-segment coordinate planes for ``project_lanes``.
        self._sx, self._sy = points[:-1, 0].copy(), points[:-1, 1].copy()
        self._ux, self._uy = self._dirs[:, 0].copy(), self._dirs[:, 1].copy()

    @property
    def length(self) -> float:
        return float(self._cum[-1])

    def point_at_arclength(self, s: float) -> np.ndarray:
        """World point at arclength ``s`` (clamped to the polyline)."""
        s = float(np.clip(s, 0.0, self.length))
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self._seg_lengths) - 1)
        return self.points[i] + (s - self._cum[i]) * self._dirs[i]

    def tangent_at_arclength(self, s: float) -> np.ndarray:
        """Unit tangent at arclength ``s``."""
        s = float(min(max(s, 0.0), self.length))
        i = int(np.searchsorted(self._cum, s, side="right") - 1)
        i = min(i, len(self._seg_lengths) - 1)
        return self._dirs[i].copy()

    def normal_at_arclength(self, s: float) -> np.ndarray:
        """Unit left-normal at arclength ``s``."""
        t = self.tangent_at_arclength(s)
        return np.array([-t[1], t[0]])

    def project(self, point: np.ndarray) -> tuple[float, float]:
        """Project a point onto the polyline.

        Returns ``(s, d)``: arclength of the closest centerline point and
        the signed lateral offset (positive to the left of travel).
        """
        p = np.asarray(point, dtype=float)
        s, idx, diff = self.project_lanes(p[None, :])
        i = int(idx[0])
        normal = np.array([-self._dirs[i][1], self._dirs[i][0]])
        return float(s[0]), float(diff[0] @ normal)

    def project_lanes(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project (K, 2) ``points`` at once → ``(s, idx, diff)``.

        Arclength per point, the index of its closest segment (lowest on
        ties), and the ``point - closest`` residual rows.  :meth:`project`
        is the one-point case.  The signed offset is left to the caller:
        ``project`` forms it with a 2-vector BLAS dot, whose rounding no
        expanded sum reproduces.
        """
        sx, sy, ux, uy = self._sx, self._sy, self._ux, self._uy
        px, py = points[:, 0:1], points[:, 1:2]  # (K, 1)
        t = (px - sx) * ux + (py - sy) * uy  # (K, S)
        np.minimum(np.maximum(t, 0.0, out=t), self._seg_lengths, out=t)  # np.clip
        # ``closest`` first, then ``point - closest``.
        diffx = px - (sx + t * ux)
        diffy = py - (sy + t * uy)
        idx = np.argmin(diffx * diffx + diffy * diffy, axis=1)
        rows = np.arange(points.shape[0])
        s = self._cum[idx] + t[rows, idx]
        return s, idx, np.stack([diffx[rows, idx], diffy[rows, idx]], axis=1)

    def offset(self, distance: float) -> "Polyline":
        """A polyline offset laterally by ``distance`` (positive = left).

        Offsets each vertex along the averaged normal of its adjacent
        segments — adequate for the gentle curvatures of corridor worlds.
        """
        normals = np.empty_like(self.points)
        seg_normals = np.column_stack([-self._dirs[:, 1], self._dirs[:, 0]])
        normals[0] = seg_normals[0]
        normals[-1] = seg_normals[-1]
        if len(self.points) > 2:
            avg = seg_normals[:-1] + seg_normals[1:]
            norms = np.linalg.norm(avg, axis=1, keepdims=True)
            norms = np.where(norms < _EPS, 1.0, norms)
            normals[1:-1] = avg / norms
        return Polyline(self.points + distance * normals)

    def to_segments(self) -> list[Segment2]:
        return [
            Segment2(
                float(self.points[i][0]),
                float(self.points[i][1]),
                float(self.points[i + 1][0]),
                float(self.points[i + 1][1]),
            )
            for i in range(len(self.points) - 1)
        ]
