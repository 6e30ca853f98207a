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

A :class:`WorldState` is a batch of ``E`` worlds of one arena stepped in
lockstep: they share the step count and the time, each has its own evader,
and the pursuer arrays have a leading episode axis, row ``[e, i]`` being
pursuer ``i`` of world ``e``.  A single world is the batch ``E = 1``.  The
pursuer step, the capture test and the evader-to-pursuer distances
(:attr:`WorldState.offsets`) run once per step for the whole batch; what must
give a lone world's bits stays per world (the evader's speed clip) or per
row (the angles of the rows that lock on or reflect).
:meth:`WorldState.take` keeps some worlds of a batch, so that a runner drops
the finished episodes and steps only the live ones.

A pursuer's direction of travel is stored only as its unit vector ``unit``:
where an angle ``h`` sets it (drawn at spawn, aimed at the evader on lock-on,
reflected off a wall) it becomes ``(math.cos(h), math.sin(h))`` once, and a
step, the detections and the forward model all move along that vector.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

__all__ = [
    "check_config",
    "ArenaConfig",
    "Pursuers",
    "EvaderState",
    "WorldState",
    "OutcomeKind",
    "init_world",
    "step_evader",
    "step_pursuers",
    "step_world",
    "check_outcome",
    "max_steps",
    "nearest_wall",
    "objective_value",
]


def check_config(cfg, positive: tuple[str, ...] = ()) -> None:
    """Raise ``ValueError`` naming the first float field of the dataclass
    ``cfg`` that is not finite, then the first field of ``positive`` that is
    not > 0: every config section checks this first."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name in positive:
        value = getattr(cfg, name)
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


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
        check_config(self, ("half_width", "half_height", "spawn_half_extent",
                            "r_e", "r_p", "capture_radius", "v_e_max", "dt"))
        if self.n_pursuers < 0:
            raise ValueError("n_pursuers must be >= 0")
        if not (0 < self.v_p_min <= self.v_p_max):
            raise ValueError("need 0 < v_p_min <= v_p_max")
        if not self.spawn_half_extent < min(self.half_width, self.half_height):
            raise ValueError("spawn region must fit strictly inside the arena")
        if not self.capture_radius < self.r_p:
            raise ValueError("capture_radius must be < r_p")
        if not self.t_max > self.dt:
            raise ValueError("t_max must be > dt")


@dataclass(eq=False)
class Pursuers:
    """The pursuers of a batch of worlds as parallel arrays, row ``[e, i]``
    pursuer ``i`` of world ``e``.

    ``xy`` is ``(E, n, 2)`` positions, ``speed`` the ``(E, n)`` current
    speeds and ``unit`` the ``(E, n, 2)`` unit vectors of the directions of
    travel.  ``patrol_speed`` is the episode-constant cruise speed a pursuer
    reverts to after losing the evader.  A world never writes these arrays
    in place: a step returns new arrays, or shares the ones it leaves
    unchanged.
    """

    xy: np.ndarray
    speed: np.ndarray
    unit: np.ndarray
    patrol_speed: np.ndarray

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, float, float, float]]
                  ) -> "Pursuers":
        """One world's patrolling pursuers from ``(x, y, speed, heading)``
        rows."""
        rows = list(rows)
        n = len(rows)
        table = np.array(rows, dtype=float).reshape(1, n, 4)
        unit = np.array([(math.cos(h), math.sin(h))
                         for h in table[0, :, 3].tolist()]).reshape(1, n, 2)
        return cls(xy=table[..., :2].copy(), speed=table[..., 2].copy(),
                   unit=unit, patrol_speed=table[..., 2].copy())

    @classmethod
    def stack(cls, batches: Sequence["Pursuers"]) -> "Pursuers":
        """The worlds of ``batches``, in order, as one batch."""
        return cls(*(np.concatenate([getattr(b, f.name) for b in batches])
                     for f in fields(cls)))

    def take(self, rows: list[int]) -> "Pursuers":
        """The worlds ``rows`` of this batch, in that order."""
        return Pursuers(*(getattr(self, f.name)[rows] for f in fields(self)))


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


@dataclass
class WorldState:
    """A batch of worlds of one arena, owned by exactly one episode runner.

    World ``e`` is ``evaders[e]`` with row ``e`` of the pursuer arrays, and
    ``outcomes[e]`` is set by :func:`init_world` and :func:`step_world` once
    it is terminal; a batch holding a terminal world is never stepped.  The
    worlds share ``step_count``; their time is ``step_count * dt``, computed
    where it is read, never accumulated, so the step bound ceil(t_max/dt)
    holds without float drift.  Stepping is fully deterministic.
    ``evaders`` and ``pursuers`` are not rebound once built: :attr:`offsets`
    is computed from them on first read and kept.
    """

    evaders: list[EvaderState]
    pursuers: Pursuers
    step_count: int = 0
    outcomes: list[OutcomeKind | None] | None = None
    _offsets: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.outcomes is None:
            self.outcomes = [None] * len(self.evaders)

    @property
    def offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(E, n, 2)`` offsets from each world's evader to its
        pursuers and their ``(E, n)`` lengths, computed on first read: the
        capture test, the detections and the lidar read this one distance
        pass."""
        if self._offsets is None:
            self._offsets = _evader_offsets(self.pursuers.xy,
                                     _positions(self.evaders))
        return self._offsets

    @classmethod
    def stack(cls, worlds: Sequence["WorldState"]) -> "WorldState":
        """The worlds of ``worlds``, in order, as one batch; they must be at
        the same step."""
        step_count = worlds[0].step_count
        if any(w.step_count != step_count for w in worlds):
            raise ValueError("a batch's worlds must be at the same step")
        return cls([e for w in worlds for e in w.evaders],
                   Pursuers.stack([w.pursuers for w in worlds]), step_count,
                   [o for w in worlds for o in w.outcomes])

    def take(self, rows: list[int]) -> "WorldState":
        """The worlds ``rows`` of this batch, in that order."""
        return WorldState([self.evaders[k] for k in rows],
                          self.pursuers.take(rows), self.step_count,
                          [self.outcomes[k] for k in rows])


def _positions(evaders: Sequence[EvaderState]) -> np.ndarray:
    """The evader positions as ``(E, 1, 2)``, to broadcast against the
    pursuer arrays."""
    xy: list[float] = []
    for e in evaders:
        xy += e.x, e.y
    return np.array(xy, dtype=float).reshape(-1, 1, 2)


def _evader_offsets(xy: np.ndarray, evader_xy: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Pursuer positions minus evader positions, and their lengths."""
    rel = xy - evader_xy
    return rel, np.hypot(rel[..., 0], rel[..., 1])


def max_steps(cfg: ArenaConfig) -> int:
    """Step budget ceil(t_max/dt), guarded against float noise in the ratio."""
    return int(math.ceil(cfg.t_max / cfg.dt - 1e-9))


def _doubles(rng: np.random.Generator, block: int) -> Iterator[float]:
    """The generator's uniform doubles in [0, 1), drawn ``block`` at a time."""
    while True:
        yield from rng.random(block).tolist()


def init_world(cfg: ArenaConfig, seed: int) -> WorldState:
    """Deterministically initialize a one-world batch of arena ``cfg`` from
    ``seed``.

    The evader is uniform in Omega with zero velocity; each pursuer is
    uniform in A \\ Omega (rejection sampling) with speed uniform in
    [v_p_min, v_p_max] and a uniform heading angle.  One arena serves every
    episode of a run; only the seed changes.  Draw order is fixed, so
    identical seeds produce bit-identical worlds.  A uniform draw in
    ``[low, high)`` is ``low + (high - low) * u`` of the generator's next
    double ``u``, as ``Generator.uniform`` computes it; the doubles are drawn
    in blocks.  A spawn can be terminal outright (a pursuer just outside
    Omega within capture radius), so the world's outcome is set here too;
    escape and timeout cannot hold at spawn (Omega lies inside the arena and
    ``t_max > dt``).
    """
    doubles = _doubles(np.random.default_rng(seed), 8 + 4 * cfg.n_pursuers)

    def uniform(low: float, high: float) -> float:
        return low + (high - low) * next(doubles)

    s = cfg.spawn_half_extent
    evader = EvaderState(uniform(-s, s), uniform(-s, s))
    # Draw and discard an evader heading, which nothing reads: without the
    # draw every pursuer draw after it would shift and every spawn change.
    next(doubles)

    rows = []
    for _ in range(cfg.n_pursuers):
        while True:
            px = uniform(-cfg.half_width, cfg.half_width)
            py = uniform(-cfg.half_height, cfg.half_height)
            if not (abs(px) <= s and abs(py) <= s):
                break
        speed = uniform(cfg.v_p_min, cfg.v_p_max)
        heading = uniform(-math.pi, math.pi)
        rows.append((px, py, speed, heading))

    world = WorldState([evader], Pursuers.from_rows(rows))
    world.outcomes = check_outcome(world, cfg)
    return world


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


def step_pursuers(p: Pursuers, evader_xy, cfg: ArenaConfig) -> Pursuers:
    """Advance every pursuer of every world by ``dt``.

    ``evader_xy`` holds each world's evader position, ``E`` pairs in
    order; one ``(x, y)`` serves a one-world batch.  Within sensor range a pursuer
    chases: direction locked on its evader, speed ``v_p_max``.  Otherwise it
    patrols with its stored cruise speed and current direction.  A step that
    would leave the arena reflects the direction specularly off the
    offending wall(s) and re-integrates, preserving speed.  Directions change
    only on the rows that lock on or reflect, one row at a time through the
    angle ``h`` from ``math.atan2``; the move itself is one array expression.
    """
    ev = np.asarray(evader_xy, dtype=float).reshape(-1, 1, 2)
    n = p.speed.shape[1]
    rel = p.xy - ev
    in_range = np.hypot(rel[..., 0], rel[..., 1]) <= cfg.r_p
    unit, speed = p.unit, p.patrol_speed
    # Rows are addressed by flat index k = e * n + i in (E * n, 2) views.
    lock = in_range.ravel().nonzero()[0].tolist()
    if lock:
        unit = unit.copy()
        speed = np.where(in_range, cfg.v_p_max, speed)
        rows, evs = unit.reshape(-1, 2), ev.tolist()
        for k, (x, y) in zip(lock, p.xy.reshape(-1, 2)[lock].tolist()):
            ((ex, ey),) = evs[k // n]
            h = math.atan2(ey - y, ex - x)
            rows[k] = math.cos(h), math.sin(h)

    xy = p.xy + speed[..., None] * unit * cfg.dt
    # Per row: crossed a vertical wall (|x| too large), a horizontal one.
    crossed = np.abs(xy) > (cfg.half_width, cfg.half_height)
    hits = crossed.ravel().nonzero()[0].tolist()
    if hits:
        if unit is p.unit:
            unit = unit.copy()
        rows, moved, flips = unit.reshape(-1, 2), xy.reshape(-1, 2), \
            crossed.reshape(-1, 2)
        start, speeds = p.xy.reshape(-1, 2), speed.ravel()
        # A corner crossing lists its row twice.
        for k in dict.fromkeys(h // 2 for h in hits):
            flip_x, flip_y = flips[k].tolist()
            c, s = rows[k].tolist()
            # Specular reflection: a vertical wall flips c = cos psi (psi ->
            # pi - psi), a horizontal wall flips s = sin psi (psi -> -psi).
            h = math.atan2(-s if flip_y else s, -c if flip_x else c)
            c, s = math.cos(h), math.sin(h)
            x, y = start[k].tolist()
            v = float(speeds[k])
            rows[k] = c, s
            moved[k] = x + v * c * cfg.dt, y + v * s * cfg.dt

    return Pursuers(xy, speed, unit, p.patrol_speed)


def check_outcome(w: WorldState, cfg: ArenaConfig
                  ) -> list[OutcomeKind | None]:
    """Each world's terminal test after a completed step; Escaped takes
    precedence over Captured, which takes precedence over Timeout."""
    dists = w.offsets[1]
    hits = (dists <= cfg.capture_radius).ravel().nonzero()[0].tolist()
    captured = {k // dists.shape[1] for k in hits} if hits else ()
    timeout = w.step_count >= max_steps(cfg)
    outcomes: list[OutcomeKind | None] = []
    for j, e in enumerate(w.evaders):
        if not (abs(e.x) <= cfg.half_width and abs(e.y) <= cfg.half_height):
            outcomes.append(OutcomeKind.ESCAPED)
        elif j in captured:
            outcomes.append(OutcomeKind.CAPTURED)
        elif timeout:
            outcomes.append(OutcomeKind.TIMEOUT)
        else:
            outcomes.append(None)
    return outcomes


def step_world(w: WorldState, actions: Sequence[tuple[float, float]],
               cfg: ArenaConfig) -> WorldState:
    """One environment transition of every world of the batch: evaders
    (``actions[e]`` commands world ``e``'s), then pursuers, then
    time/termination.

    Returns the new batch, whose ``outcomes`` is where each world's outcome
    is read (None while it runs).  Stepping a batch that holds a terminal
    world raises ``RuntimeError``.
    """
    if w.outcomes.count(None) != len(w.outcomes):
        raise RuntimeError("step_world called on a terminal world")
    if len(actions) != len(w.evaders):
        raise ValueError(f"{len(actions)} actions for {len(w.evaders)} worlds")
    evaders = [step_evader(e, a, cfg) for e, a in zip(w.evaders, actions)]
    evader_xy = _positions(evaders)
    pursuers = step_pursuers(w.pursuers, evader_xy, cfg)
    step_count = w.step_count + 1
    out = WorldState(evaders, pursuers, step_count)
    # The new world's distances, from the positions at hand.
    out._offsets = _evader_offsets(pursuers.xy, evader_xy)
    out.outcomes = check_outcome(out, cfg)
    return out


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
    i = dists.index(min(dists))  # the first minimum
    return max(dists[i], 0.0), dirs[i]


def objective_value(pos: tuple[float, float], detection_distances,
                    cfg: ArenaConfig, r_b_norm: float) -> float:
    """Instantaneous objective at evader position ``pos``: pursuer-proximity
    sum plus normalized boundary distance.  Used as an evaluation metric
    only; the pursuer sum is 0 with no detections."""
    d_b = nearest_wall(pos, cfg)[0]
    m = len(detection_distances)
    pursuer_term = 0.0
    for d in detection_distances:  # a left fold, as in neural._descend
        pursuer_term += (cfg.r_e - d) / (m * cfg.r_e)
    return pursuer_term + d_b / r_b_norm
