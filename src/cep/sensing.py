"""Perception: the frame the reward and the planner read, and the actor's input.

:func:`sense` returns each world's :class:`SenseFrame`: the detected
pursuers by id, the nearest wall's distance and direction, and the time factor
``t_f``.  It reads the pursuers within ``r_e`` of every world of a batch
from the batch's ``near`` list (see :mod:`cep.env`), in the batch's own
arena; the per-detection angles and the nearest wall stay per world.
:func:`observe` builds every world's actor input, one row each, from the
lidar and boundary scans it casts for the batch.  :func:`objective_value`
reads a frame: the replay's ``objective`` column.

Time factor: ``t_f = (1 - t/t_max) / 2`` at ``t = step_count * dt``, clamped
to ``t_max``, from 0.5 at the start to 0 at the timeout.  :func:`time_factor`
is its one body, and :func:`sense` and :func:`observe` its two readers.

Rays are cast in the evader frame, which is evader-centered and axis-aligned
(the evader localizes itself, so directions are absolute): ray ``k`` points
at angle ``2*pi*k/n_s`` from the +x axis.  Rotating the whole scene about the
evader by one ray step therefore shifts the scan indices cyclically.
Pursuers are modeled as discs of radius ``capture_radius / 2``; each lidar
ray reports the nearest intersection distance ``z_i``, or the sensor range
``r_e`` on a miss.  The boundary scan measures the distance ``b_i`` along
each ray to the confinement rectangle.

Observation (element-wise, ``i = 0..n_s-1``)::

    lidar      D_l[i] = k_s * z_i / r_e
    boundary   D_b[i] = k_s * (1 - b_i / r_b_norm)
    state      s[i]   = t_f * (w_l * D_l[i] + w_b * D_b[i]) / (w_l + w_b)

``D_b`` is not clamped: a ray longer than ``r_b_norm`` makes it negative.
Both shipped profiles allow such rays.  1 m from a corner the longest ray is
129 m on the desk profile (``r_b_norm`` 100) and 281 m on the paper profile
(``r_b_norm`` 200), so ``D_b`` reaches -0.29 and -0.41 at ``k_s = 1``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .env import ArenaConfig, WorldState, check_config, nearest_wall

__all__ = [
    "SensingConfig",
    "Detection",
    "SenseFrame",
    "sense",
    "cast_rays",
    "boundary_scan",
    "time_factor",
    "observe",
    "objective_value",
]


@dataclass(frozen=True)
class SensingConfig:
    """Ray count, encoding amplitude, source weights, and the boundary
    normalization constant ``r_b_norm``; ``D_b`` is not clamped, so a ray
    longer than ``r_b_norm`` gives a negative ``D_b`` (module docstring)."""

    n_s: int = 72
    k_s: float = 1.0
    w_l: float = 1.0
    w_b: float = 1.0
    r_b_norm: float = 200.0

    def __post_init__(self) -> None:
        check_config(self, ("k_s", "r_b_norm"))
        if self.n_s < 4:
            raise ValueError(f"n_s must be >= 4, got {self.n_s}")
        if self.w_l < 0 or self.w_b < 0 or not (self.w_l + self.w_b) > 0:
            raise ValueError("weights must be >= 0 with a positive sum")


class Detection(NamedTuple):
    """One pursuer within the evader's sensor range, keyed by its id in
    :attr:`SenseFrame.detections`.

    ``bearing`` is the world-frame angle of the evader->pursuer line;
    ``theta`` the angle between the pursuer's direction of travel and the
    pursuer->evader line (0 means head-on approach).
    """

    distance: float
    bearing: float
    speed: float
    theta: float


@dataclass
class SenseFrame:
    """What the reward and the planner read at one instant: the detections
    by pursuer id, in ascending id order, the nearest-wall distance ``d_b``
    and unit direction, and the time factor ``t_f``."""

    detections: dict[int, Detection]
    d_b: float
    boundary_dir: tuple[float, float]
    t_f: float


@functools.lru_cache(maxsize=16)
def _ray_directions(n_s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Computed once per ``n_s`` and shared read-only by every caller: the
    ``(2, n_s)`` cosines and sines of the ray angles (rows x and y); per axis
    and ray, the sign of the wall the ray heads for, ``inf`` on a ray
    parallel to that axis' walls; and the divisor that turns a wall offset
    into a ray length, the cosine, or 1 on a parallel ray, whose length is
    then ``inf`` with no division by zero."""
    angles = 2.0 * math.pi * np.arange(n_s) / n_s
    dirs = np.stack([np.cos(angles), np.sin(angles)])
    signs = np.where(dirs > 0.0, 1.0, np.where(dirs < 0.0, -1.0, np.inf))
    divisors = np.where(dirs == 0.0, 1.0, dirs)
    for a in (dirs, signs, divisors):
        a.setflags(write=False)
    return dirs, signs, divisors


def sense(w: WorldState) -> list[SenseFrame]:
    """The frame of each world of ``w``, read from the batch's ``near``
    list.  Detections map the id of every pursuer whose center distance is
    within ``r_e`` to its :class:`Detection`, in ascending id order."""
    arena, rel = w.arena, w.offsets[0]
    t_f = time_factor(w)
    frames = [SenseFrame({}, *nearest_wall((e.x, e.y), arena), t_f)
              for e in w.evaders]
    # The near list runs by flat index k = e * n + i: world by world, in id
    # order.
    unit, speed = w.pursuers.unit, w.pursuers.speed
    n = speed.shape[1]
    for k, d in w.near:
        if d <= arena.r_e:
            e, i = divmod(k, n)
            rx, ry = rel[e, i].tolist()
            bearing = math.atan2(ry, rx)
            if d > 0.0:
                # -rx, -ry: the pursuer->evader line, exactly.
                c, s = unit[e, i].tolist()
                theta = math.acos(min(1.0, max(-1.0, (c * -rx + s * -ry) / d)))
            else:
                theta = 0.0
            frames[e].detections[i] = Detection(
                d, bearing, float(speed[e, i]), theta)
    return frames


def cast_rays(w: WorldState, cfg: SensingConfig) -> np.ndarray:
    """Lidar ranges of every world of ``w`` over its pursuer discs: one row
    of ``n_s`` ranges per world.

    A ray's range is the nearest positive disc intersection within ``r_e``,
    else ``r_e``.  Only discs centered within ``r_e`` plus the radius (and a
    1e-9 relative margin for rounding) can be hit inside ``r_e``.  Each near
    disc of the batch folds into its world's row by an exact minimum.
    """
    arena, (rel, dists) = w.arena, w.offsets
    radius = arena.capture_radius / 2.0
    scan = np.full((len(w.evaders), cfg.n_s), arena.r_e)
    worlds, near = (dists <= (arena.r_e + radius) * (1.0 + 1e-9)).nonzero()
    if not worlds.size:
        return scan
    rel, dists = rel[worlds, near], dists[worlds, near]
    (cx, sx), _, _ = _ray_directions(cfg.n_s)
    # t_c: projection of each center onto each ray, shape (n_near, n_s)
    t_c = rel[:, 0:1] * cx[None, :] + rel[:, 1:2] * sx[None, :]
    perp_sq = (dists ** 2)[:, None] - t_c ** 2
    disc = radius ** 2 - perp_sq
    hit = disc >= 0.0
    h = np.sqrt(np.maximum(disc, 0.0))
    t0 = t_c - h
    t1 = t_c + h
    t = np.where(t0 > 0.0, t0, np.where(t1 > 0.0, t1, np.inf))
    t = np.where(hit, t, np.inf)
    np.minimum.at(scan, worlds, t)
    return scan


def boundary_scan(xy: list[tuple[float, float]], arena: ArenaConfig,
                  cfg: SensingConfig) -> np.ndarray:
    """Distance along each evader-frame ray to the confinement rectangle,
    one row of ``n_s`` per ``(x, y)`` row of ``xy``.

    Outside the arena all distances are 0 (the episode is already terminal).
    """
    _, signs, divisors = _ray_directions(cfg.n_s)
    xy = np.asarray(xy, dtype=float)
    half = np.array([[arena.half_width], [arena.half_height]])
    # Per position, axis and ray: the distance to the wall the ray meets.
    t = (signs * half - xy[:, :, None]) / divisors
    inside = (np.abs(xy) <= half.T).all(axis=1)
    return np.where(inside[:, None], np.minimum(t[:, 0], t[:, 1]), 0.0)


def time_factor(w: WorldState) -> float:
    """``t_f`` of the batch ``w`` at its time ``step_count * dt``, clamped to
    ``t_max``: the final step, ``ceil(t_max/dt)``, can land past it, by one
    float ulp when ``dt`` divides ``t_max`` and by up to ``dt`` otherwise."""
    t_max = w.arena.t_max
    return (1.0 - min(w.step_count * w.arena.dt, t_max) / t_max) / 2.0


def observe(w: WorldState, cfg: SensingConfig) -> np.ndarray:
    """The actor's input at each world of ``w``, one row per world: ``n_s``
    scalars, each the weighted mean of the encoded :func:`cast_rays` and
    :func:`boundary_scan` ranges of one ray, times ``t_f``."""
    lidar = cast_rays(w, cfg)
    boundary = boundary_scan([(e.x, e.y) for e in w.evaders], w.arena, cfg)
    t_f = time_factor(w)
    return t_f * (cfg.w_l * (cfg.k_s * lidar / w.arena.r_e)
                  + cfg.w_b * (cfg.k_s * (1.0 - boundary / cfg.r_b_norm))
                  ) / (cfg.w_l + cfg.w_b)


def objective_value(frame: SenseFrame, arena: ArenaConfig,
                    cfg: SensingConfig) -> float:
    """Instantaneous objective of ``frame``: pursuer-proximity sum plus the
    nearest-wall distance ``d_b`` over ``r_b_norm``.  Used as an evaluation
    metric only; the pursuer sum is 0 with no detections."""
    m = len(frame.detections)
    pursuer_term = 0.0
    for d in frame.detections.values():  # a left fold, as in neural._descend
        pursuer_term += (arena.r_e - d.distance) / (m * arena.r_e)
    return pursuer_term + frame.d_b / cfg.r_b_norm
