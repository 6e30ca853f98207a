"""Arena geometry, agent kinematics, pursuer behavior, and episode lifecycle.

The confinement region ``A`` is the axis-aligned rectangle
``[-half_width, half_width] x [-half_height, half_height]`` centered at the
origin.  The evader spawns inside the smaller square region ``Omega`` of
half-extent ``spawn_half_extent``; pursuers spawn uniformly in ``A \\ Omega``.

An episode advances in fixed steps of ``dt`` seconds: the evader moves first,
then every pursuer in list order, then elapsed time and termination are
updated.  Pursuers patrol on straight lines, reflect specularly off the walls,
and chase at full speed while the evader is within their sensor range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ArenaConfig",
    "PursuerMode",
    "PursuerState",
    "EvaderState",
    "WorldState",
    "OutcomeKind",
    "EpisodeOutcome",
    "init_world",
    "step_evader",
    "step_pursuer",
    "step_world",
    "max_steps",
    "nearest_wall_distance",
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
    seed: int = 0

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


class PursuerMode(Enum):
    PATROL = "patrol"
    CHASE = "chase"


@dataclass
class PursuerState:
    """One pursuer.  ``patrol_speed`` is the episode-constant cruise speed the
    pursuer reverts to after losing the evader (chase overwrites ``speed``)."""

    x: float
    y: float
    speed: float
    heading: float
    mode: PursuerMode = PursuerMode.PATROL
    patrol_speed: float = 0.0

    def __post_init__(self) -> None:
        if self.patrol_speed == 0.0:
            self.patrol_speed = self.speed


@dataclass
class EvaderState:
    x: float
    y: float
    vx: float = 0.0
    vy: float = 0.0
    heading: float = 0.0

    @property
    def speed(self) -> float:
        return math.hypot(self.vx, self.vy)


@dataclass
class WorldState:
    """Full mutable game state owned by exactly one episode runner.

    ``t`` is always ``step_count * dt`` (recomputed, never accumulated) so the
    step bound ceil(t_max/dt) holds without float drift.  The RNG is consumed
    only by :func:`init_world`; stepping is fully deterministic.
    """

    evader: EvaderState
    pursuers: list[PursuerState]
    t: float = 0.0
    step_count: int = 0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))


class OutcomeKind(Enum):
    ESCAPED = "escaped"
    CAPTURED = "captured"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class EpisodeOutcome:
    kind: OutcomeKind
    steps: int
    final_t: float


def max_steps(cfg: ArenaConfig) -> int:
    """Step budget ceil(t_max/dt), guarded against float noise in the ratio."""
    return int(math.ceil(cfg.t_max / cfg.dt - 1e-9))


def _inside_arena(x: float, y: float, cfg: ArenaConfig) -> bool:
    return abs(x) <= cfg.half_width and abs(y) <= cfg.half_height


def init_world(cfg: ArenaConfig) -> WorldState:
    """Deterministically initialize a world from ``cfg.seed``.

    The evader is uniform in Omega with zero velocity and uniform heading;
    each pursuer is uniform in A \\ Omega (rejection sampling) with speed
    uniform in [v_p_min, v_p_max] and uniform heading.  Draw order is fixed,
    so identical seeds produce bit-identical worlds.
    """
    rng = np.random.default_rng(cfg.seed)
    s = cfg.spawn_half_extent
    ex = float(rng.uniform(-s, s))
    ey = float(rng.uniform(-s, s))
    eh = float(rng.uniform(-math.pi, math.pi))
    evader = EvaderState(ex, ey, 0.0, 0.0, eh)

    pursuers = []
    for _ in range(cfg.n_pursuers):
        while True:
            px = float(rng.uniform(-cfg.half_width, cfg.half_width))
            py = float(rng.uniform(-cfg.half_height, cfg.half_height))
            if not (abs(px) <= s and abs(py) <= s):
                break
        speed = float(rng.uniform(cfg.v_p_min, cfg.v_p_max))
        heading = float(rng.uniform(-math.pi, math.pi))
        pursuers.append(PursuerState(px, py, speed, heading))

    return WorldState(evader, pursuers, t=0.0, step_count=0, rng=rng)


def step_evader(s: EvaderState, action: tuple[float, float],
                cfg: ArenaConfig) -> EvaderState:
    """Advance the evader by one step of the commanded velocity.

    The command is norm-clipped to ``v_e_max``; the heading follows the
    applied velocity and is unchanged for a zero command.  A NaN or infinite
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
    heading = math.atan2(vy, vx) if (vx != 0.0 or vy != 0.0) else s.heading
    return EvaderState(s.x + vx * cfg.dt, s.y + vy * cfg.dt, vx, vy, heading)


def _advance(x: float, y: float, speed: float, heading: float,
             dt: float) -> tuple[float, float]:
    return x + speed * math.cos(heading) * dt, y + speed * math.sin(heading) * dt


def _reflect_heading(heading: float, flip_x: bool, flip_y: bool) -> float:
    # Specular reflection: a vertical wall flips the x velocity component
    # (psi -> pi - psi), a horizontal wall flips y (psi -> -psi).
    c, s = math.cos(heading), math.sin(heading)
    if flip_x:
        c = -c
    if flip_y:
        s = -s
    return math.atan2(s, c)


def step_pursuer(p: PursuerState, evader_pos: tuple[float, float],
                 cfg: ArenaConfig) -> PursuerState:
    """Advance one pursuer by ``dt``.

    Within sensor range the pursuer chases: heading locked on the evader,
    speed ``v_p_max``.  Otherwise it patrols with its stored cruise speed and
    current heading.  A step that would leave the arena reflects the heading
    specularly off the offending wall(s) and re-integrates, preserving speed.
    """
    ex, ey = evader_pos
    dist = math.hypot(ex - p.x, ey - p.y)
    if dist <= cfg.r_p:
        mode = PursuerMode.CHASE
        heading = math.atan2(ey - p.y, ex - p.x)
        speed = cfg.v_p_max
    else:
        mode = PursuerMode.PATROL
        heading = p.heading
        speed = p.patrol_speed

    nx, ny = _advance(p.x, p.y, speed, heading, cfg.dt)
    flip_x = abs(nx) > cfg.half_width
    flip_y = abs(ny) > cfg.half_height
    if flip_x or flip_y:
        heading = _reflect_heading(heading, flip_x, flip_y)
        nx, ny = _advance(p.x, p.y, speed, heading, cfg.dt)

    return PursuerState(nx, ny, speed, heading, mode, p.patrol_speed)


def check_outcome(w: WorldState, cfg: ArenaConfig) -> EpisodeOutcome | None:
    """Terminal test after a completed step; Escaped takes precedence over
    Captured, which takes precedence over Timeout."""
    e = w.evader
    if not _inside_arena(e.x, e.y, cfg):
        return EpisodeOutcome(OutcomeKind.ESCAPED, w.step_count, w.t)
    for p in w.pursuers:
        if math.hypot(p.x - e.x, p.y - e.y) <= cfg.capture_radius:
            return EpisodeOutcome(OutcomeKind.CAPTURED, w.step_count, w.t)
    if w.step_count >= max_steps(cfg):
        return EpisodeOutcome(OutcomeKind.TIMEOUT, w.step_count, w.t)
    return None


def step_world(w: WorldState, evader_action: tuple[float, float],
               cfg: ArenaConfig) -> tuple[WorldState, EpisodeOutcome | None]:
    """One environment transition: evader, then pursuers, then time/termination.

    Returns a new world plus the outcome when the step ends the episode.
    Stepping an already-terminal world is a usage error.
    """
    if check_outcome(w, cfg) is not None:
        raise RuntimeError("step_world called on a terminal world")
    evader = step_evader(w.evader, evader_action, cfg)
    epos = (evader.x, evader.y)
    pursuers = [step_pursuer(p, epos, cfg) for p in w.pursuers]
    step_count = w.step_count + 1
    out = WorldState(evader, pursuers, t=step_count * cfg.dt,
                     step_count=step_count, rng=w.rng)
    return out, check_outcome(out, cfg)


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


def nearest_wall_distance(pos: tuple[float, float], cfg: ArenaConfig) -> float:
    return nearest_wall(pos, cfg)[0]


def objective_value(w: WorldState, detection_distances, cfg: ArenaConfig,
                    r_b_norm: float) -> float:
    """Instantaneous objective: pursuer-proximity sum plus normalized boundary
    distance.  Used as an evaluation metric only; the pursuer sum is 0 with no
    detections."""
    d_b = nearest_wall_distance((w.evader.x, w.evader.y), cfg)
    m = len(detection_distances)
    pursuer_term = 0.0
    if m > 0:
        pursuer_term = sum((cfg.r_e - d) / (m * cfg.r_e)
                           for d in detection_distances)
    return pursuer_term + d_b / r_b_norm
