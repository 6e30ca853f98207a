"""Arena geometry, agent kinematics, pursuer behavior, and episode lifecycle.

The confinement region ``A`` is the axis-aligned rectangle
``[-half_width, half_width] x [-half_height, half_height]`` centered at the
origin.  The evader spawns inside the smaller square region ``Omega`` of
half-extent ``spawn_half_extent``; pursuers spawn uniformly in ``A \\ Omega``.

An episode advances in fixed steps of ``dt`` seconds: the evader moves first,
then all pursuers at once (each sees the evader's new position, none sees
another pursuer), then elapsed time and termination are updated.  Pursuers
patrol on straight lines, reflect specularly off the walls, and chase at full
speed while the evader is within their sensor range.

The pursuers of a world are one :class:`Pursuers` struct of parallel arrays,
row ``i`` being pursuer ``i``.  A pursuer's direction of travel is stored only
as its unit vector ``unit``: where an angle ``h`` sets it (drawn at spawn,
aimed at the evader on lock-on, reflected off a wall) it becomes
``(math.cos(h), math.sin(h))`` once, and a step, the detections and the
forward model all move along that vector.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ArenaConfig",
    "Pursuers",
    "EvaderState",
    "WorldState",
    "OutcomeKind",
    "EpisodeOutcome",
    "init_world",
    "step_evader",
    "step_pursuers",
    "step_world",
    "max_steps",
    "nearest_wall",
    "objective_value",
]


@dataclass(frozen=True)
class ArenaConfig:
    """Static parameters of one confinement-escape game.

    Lengths are meters, speeds m/s, times seconds.  ``r_e``/``r_p`` are the
    evader/pursuer sensor ranges, ``capture_radius`` the capture distance.
    """

    half_width: float = 100.0
    half_height: float = 100.0
    spawn_half_extent: float = 10.0
    n_pursuers: int = 30
    v_e_max: float = 15.0
    v_p_min: float = 5.0
    v_p_max: float = 10.0
    r_e: float = 15.0
    r_p: float = 10.0
    capture_radius: float = 2.0
    dt: float = 0.1
    t_max: float = 300.0

    def __post_init__(self) -> None:
        lengths = {
            "half_width": self.half_width,
            "half_height": self.half_height,
            "spawn_half_extent": self.spawn_half_extent,
            "r_e": self.r_e,
            "r_p": self.r_p,
            "capture_radius": self.capture_radius,
        }
        for name, value in lengths.items():
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.n_pursuers < 0:
            raise ValueError("n_pursuers must be >= 0")
        if not (0 < self.v_p_min <= self.v_p_max):
            raise ValueError("need 0 < v_p_min <= v_p_max")
        if not self.v_e_max > 0:
            raise ValueError("v_e_max must be > 0")
        if not self.spawn_half_extent < min(self.half_width, self.half_height):
            raise ValueError("spawn region must fit strictly inside the arena")
        if not self.capture_radius < self.r_p:
            raise ValueError("capture_radius must be < r_p")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not self.t_max > self.dt:
            raise ValueError("t_max must be > dt")


@dataclass(eq=False)
class Pursuers:
    """All pursuers of one world as parallel arrays, row ``i`` pursuer ``i``.

    ``xy`` is ``(n, 2)`` positions, ``speed`` the current speed and ``unit``
    the ``(n, 2)`` unit vectors of the directions of travel.
    ``patrol_speed`` is the episode-constant cruise speed a pursuer reverts to
    after losing the evader, and ``chasing`` marks the pursuers that saw the
    evader on their last step.  A world never writes these arrays in place:
    a step returns new arrays, or shares the ones it leaves unchanged.
    """

    xy: np.ndarray
    speed: np.ndarray
    unit: np.ndarray
    patrol_speed: np.ndarray
    chasing: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, float, float, float]]
                  ) -> "Pursuers":
        """Patrolling pursuers from ``(x, y, speed, heading)`` rows."""
        rows = list(rows)
        n = len(rows)
        table = np.array(rows, dtype=float).reshape(n, 4)
        unit = np.array([(math.cos(h), math.sin(h))
                         for h in table[:, 3].tolist()]).reshape(n, 2)
        return cls(xy=table[:, :2].copy(), speed=table[:, 2].copy(),
                   unit=unit, patrol_speed=table[:, 2].copy(),
                   chasing=np.zeros(n, dtype=bool))

    def __len__(self) -> int:
        return len(self.speed)


@dataclass
class EvaderState:
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0


class OutcomeKind(Enum):
    ESCAPED = "escaped"
    CAPTURED = "captured"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class EpisodeOutcome:
    kind: OutcomeKind
    steps: int
    final_t: float


@dataclass
class WorldState:
    """Full mutable game state owned by exactly one episode runner.

    ``t`` is always ``step_count * dt`` (recomputed, never accumulated) so the
    step bound ceil(t_max/dt) holds without float drift.  Stepping is fully
    deterministic.  ``outcome`` is set by :func:`init_world` and
    :func:`step_world` once the world is terminal; such a world is never
    stepped.
    """

    evader: EvaderState
    pursuers: Pursuers
    t: float = 0.0
    step_count: int = 0
    outcome: EpisodeOutcome | None = None


def max_steps(cfg: ArenaConfig) -> int:
    """Step budget ceil(t_max/dt), guarded against float noise in the ratio."""
    return int(math.ceil(cfg.t_max / cfg.dt - 1e-9))


def _inside_arena(x: float, y: float, cfg: ArenaConfig) -> bool:
    return abs(x) <= cfg.half_width and abs(y) <= cfg.half_height


def init_world(cfg: ArenaConfig, seed: int) -> WorldState:
    """Deterministically initialize a world of arena ``cfg`` from ``seed``.

    The evader is uniform in Omega with zero velocity; each pursuer is
    uniform in A \\ Omega (rejection sampling) with speed uniform in
    [v_p_min, v_p_max] and a uniform heading angle.  One arena serves every
    episode of a run; only the seed changes.  Draw order is fixed, so
    identical seeds produce bit-identical worlds.  A spawn can be terminal
    outright (a pursuer just outside Omega within capture radius), so the
    world's ``outcome`` is set here too; escape and timeout cannot hold at
    spawn (Omega lies inside the arena and ``t_max > dt``).
    """
    rng = np.random.default_rng(seed)
    s = cfg.spawn_half_extent
    ex = float(rng.uniform(-s, s))
    ey = float(rng.uniform(-s, s))
    # Draw and discard an evader heading, which nothing reads: without the
    # draw every pursuer draw after it would shift and every spawn change.
    rng.uniform(-math.pi, math.pi)
    evader = EvaderState(ex, ey)

    rows = []
    for _ in range(cfg.n_pursuers):
        while True:
            px = float(rng.uniform(-cfg.half_width, cfg.half_width))
            py = float(rng.uniform(-cfg.half_height, cfg.half_height))
            if not (abs(px) <= s and abs(py) <= s):
                break
        speed = float(rng.uniform(cfg.v_p_min, cfg.v_p_max))
        heading = float(rng.uniform(-math.pi, math.pi))
        rows.append((px, py, speed, heading))

    pursuers = Pursuers.from_rows(rows)
    outcome = EpisodeOutcome(OutcomeKind.CAPTURED, 0, 0.0) \
        if _captured(evader, pursuers, cfg) else None
    return WorldState(evader, pursuers, outcome=outcome)


def step_evader(s: EvaderState, action: tuple[float, float],
                cfg: ArenaConfig) -> EvaderState:
    """Advance the evader by one step of the commanded velocity.

    The command is norm-clipped to ``v_e_max``.  A NaN or infinite
    component raises ``ValueError``: it has no direction to clip along.
    """
    vx, vy = float(action[0]), float(action[1])
    if not (math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError(f"evader action {(vx, vy)} is not finite")
    speed = math.hypot(vx, vy)
    if speed > cfg.v_e_max:
        scale = cfg.v_e_max / speed
        vx *= scale
        vy *= scale
    return EvaderState(s.x + vx * cfg.dt, s.y + vy * cfg.dt, vx, vy)


def _reflect_heading(c: float, s: float, flip_x: bool, flip_y: bool) -> float:
    # Specular reflection of the direction (c, s) = (cos psi, sin psi): a
    # vertical wall flips the x component (psi -> pi - psi), a horizontal
    # wall flips y (psi -> -psi).
    if flip_x:
        c = -c
    if flip_y:
        s = -s
    return math.atan2(s, c)


def step_pursuers(p: Pursuers, evader_pos: tuple[float, float],
                  cfg: ArenaConfig) -> Pursuers:
    """Advance every pursuer by ``dt``.

    Within sensor range a pursuer chases: direction locked on the evader,
    speed ``v_p_max``.  Otherwise it patrols with its stored cruise speed and
    current direction.  A step that would leave the arena reflects the
    direction specularly off the offending wall(s) and re-integrates,
    preserving speed.  Directions change only on the rows that lock on or
    reflect, one row at a time through the angle ``h`` from ``math.atan2``;
    the move itself is one array expression.
    """
    ex, ey = evader_pos
    rel = p.xy - evader_pos
    chasing = np.hypot(rel[:, 0], rel[:, 1]) <= cfg.r_p
    unit, speed = p.unit, p.patrol_speed
    lock = chasing.nonzero()[0].tolist()
    if lock:
        unit = unit.copy()
        speed = np.where(chasing, cfg.v_p_max, speed)
        for i, (x, y) in zip(lock, p.xy[lock].tolist()):
            h = math.atan2(ey - y, ex - x)
            unit[i] = math.cos(h), math.sin(h)

    xy = p.xy + speed[:, None] * unit * cfg.dt
    # Per row: crossed a vertical wall (|x| too large), a horizontal one.
    crossed = np.abs(xy) > (cfg.half_width, cfg.half_height)
    rows = crossed.nonzero()[0].tolist()
    if rows:
        if unit is p.unit:
            unit = unit.copy()
        for i in dict.fromkeys(rows):  # a corner crossing lists its row twice
            flip_x, flip_y = crossed[i].tolist()
            c, s = unit[i].tolist()
            h = _reflect_heading(c, s, flip_x, flip_y)
            c, s = math.cos(h), math.sin(h)
            x, y = p.xy[i].tolist()
            v = float(speed[i])
            unit[i] = c, s
            xy[i] = x + v * c * cfg.dt, y + v * s * cfg.dt

    return Pursuers(xy, speed, unit, p.patrol_speed, chasing)


def _captured(e: EvaderState, p: Pursuers, cfg: ArenaConfig) -> bool:
    xy = p.xy
    return bool(np.count_nonzero(np.hypot(xy[:, 0] - e.x, xy[:, 1] - e.y)
                                 <= cfg.capture_radius))


def check_outcome(w: WorldState, cfg: ArenaConfig) -> EpisodeOutcome | None:
    """Terminal test after a completed step; Escaped takes precedence over
    Captured, which takes precedence over Timeout."""
    e = w.evader
    if not _inside_arena(e.x, e.y, cfg):
        return EpisodeOutcome(OutcomeKind.ESCAPED, w.step_count, w.t)
    if _captured(e, w.pursuers, cfg):
        return EpisodeOutcome(OutcomeKind.CAPTURED, w.step_count, w.t)
    if w.step_count >= max_steps(cfg):
        return EpisodeOutcome(OutcomeKind.TIMEOUT, w.step_count, w.t)
    return None


def step_world(w: WorldState, evader_action: tuple[float, float],
               cfg: ArenaConfig) -> tuple[WorldState, EpisodeOutcome | None]:
    """One environment transition: evader, then pursuers, then time/termination.

    Returns a new world plus the outcome when the step ends the episode (also
    kept as the new world's ``outcome``).  Stepping a terminal world raises
    ``RuntimeError``.
    """
    if w.outcome is not None:
        raise RuntimeError("step_world called on a terminal world")
    evader = step_evader(w.evader, evader_action, cfg)
    pursuers = step_pursuers(w.pursuers, (evader.x, evader.y), cfg)
    step_count = w.step_count + 1
    out = WorldState(evader, pursuers, t=step_count * cfg.dt,
                     step_count=step_count)
    out.outcome = check_outcome(out, cfg)
    return out, out.outcome


def nearest_wall(pos: tuple[float, float],
                 cfg: ArenaConfig) -> tuple[float, tuple[float, float]]:
    """Distance to the nearest wall and the unit direction toward it.

    Walls are tested in fixed order (east, west, north, south); corner ties
    resolve to the first minimum.  Outside the arena the distance is 0.
    """
    x, y = pos
    dists = (cfg.half_width - x, cfg.half_width + x,
             cfg.half_height - y, cfg.half_height + y)
    dirs = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))
    i = min(range(4), key=lambda k: dists[k])
    return max(dists[i], 0.0), dirs[i]


def objective_value(w: WorldState, detection_distances, cfg: ArenaConfig,
                    r_b_norm: float) -> float:
    """Instantaneous objective: pursuer-proximity sum plus normalized boundary
    distance.  Used as an evaluation metric only; the pursuer sum is 0 with no
    detections."""
    d_b = nearest_wall((w.evader.x, w.evader.y), cfg)[0]
    m = len(detection_distances)
    pursuer_term = 0.0
    if m > 0:
        pursuer_term = sum((cfg.r_e - d) / (m * cfg.r_e)
                           for d in detection_distances)
    return pursuer_term + d_b / r_b_norm
