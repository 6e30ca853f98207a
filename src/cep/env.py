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

A :class:`WorldState` is a batch of ``E`` worlds of the arena it holds,
stepped in lockstep: they share the step count and the time, each has its
own evader, and the pursuer arrays have a leading episode axis, row
``[e, i]`` being pursuer ``i`` of world ``e``.  A single world is the batch
``E = 1``.  A world is built whole, with its distances and outcomes, so
nothing that reads a world takes the arena again.  The pursuer step, the
capture test and the evader-to-pursuer distances run once per step for the
whole batch; what must give a lone world's bits stays per world (the
evader's speed clip) or per row (the angles of the rows that lock on or
reflect).  :meth:`WorldState.take` keeps some worlds of a batch, so that a
runner drops the finished episodes and steps only the live ones.

The distances are scanned once per built world, into its ``near`` list of
every pursuer within ``r_e`` or the lock reach ``L + 1e-9 * (L + half_width
+ half_height)``, ``L = r_p + v_e_max * dt``.  The capture test and the
detections read that list (``capture_radius < r_p``).  The evader moves at
most ``v_e_max * dt`` per step, so a pursuer beyond the lock reach before a
step cannot be within ``r_p`` after it; the margin covers the speed clip's
ulp (:func:`step_evader`) and the rounding of positions, which grows with
the arena.  So :func:`step_world` range-tests only the rows of the list
within the lock reach, and none when it holds no such row.

A pursuer's direction of travel is stored only as its unit vector ``unit``:
where an angle ``h`` sets it (drawn at spawn, aimed at the evader on lock-on,
reflected off a wall) it becomes ``(math.cos(h), math.sin(h))`` once, and a
step, the detections and the forward model all move along that vector.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
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
            raise ValueError(f"n_pursuers must be >= 0, got {self.n_pursuers}")
        if not (0 < self.v_p_min <= self.v_p_max):
            raise ValueError("need 0 < v_p_min <= v_p_max")
        if not self.spawn_half_extent < min(self.half_width, self.half_height):
            raise ValueError("spawn region must fit strictly inside the arena")
        if not self.capture_radius < self.r_p:
            raise ValueError("capture_radius must be < r_p")
        if not self.t_max > self.dt:
            raise ValueError("t_max must be > dt")
        if not math.isfinite(self.t_max / self.dt):
            raise ValueError(f"t_max / dt must be finite, got {self.t_max} / "
                             f"{self.dt}")


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
    """A batch of worlds of the arena ``arena``, owned by one episode runner.

    World ``e`` is ``evaders[e]`` with row ``e`` of the pursuer arrays.  The
    worlds share ``step_count``; their time is ``step_count * dt``, computed
    where it is read, never accumulated, so the step bound ceil(t_max/dt)
    holds without float drift.  Stepping is fully deterministic.

    Every builder (``init_world``, ``step_world``, ``take``, ``stack``,
    ``dataclasses.replace``) computes three fields: ``offsets``, the
    ``(E, n, 2)`` offsets from each world's evader to its pursuers and their
    ``(E, n)`` lengths, the one distance pass; ``near``, the ``(k, d)``
    pairs, by ascending flat index ``k = e * n + i``, of the pursuers within
    the reach of the module docstring, ``d`` a float; and ``outcomes``,
    :func:`check_outcome` of the batch (None for a world that runs).  A
    batch holding a terminal world is never stepped.  No field is rebound
    once built.  A batch needs one evader per world of its pursuers, and at
    least one world to be stacked; either fault raises ``ValueError``.
    """

    arena: ArenaConfig
    evaders: list[EvaderState]
    pursuers: Pursuers
    step_count: int = 0
    offsets: tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False)
    near: list[tuple[int, float]] = field(
        init=False, repr=False, compare=False)
    outcomes: list[OutcomeKind | None] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.evaders) != len(self.pursuers.speed):
            raise ValueError(f"{len(self.evaders)} evaders for a batch of "
                             f"{len(self.pursuers.speed)} worlds")
        xy: list[float] = []
        for e in self.evaders:
            xy += e.x, e.y
        rel = self.pursuers.xy - np.array(xy, dtype=float).reshape(-1, 1, 2)
        dists = np.hypot(rel[..., 0], rel[..., 1])
        self.offsets = rel, dists
        flat = dists.ravel()
        reach = max(self.arena.r_e, _lock_reach(self.arena))
        near = (flat <= reach).nonzero()[0].tolist()
        self.near = list(zip(near, flat[near].tolist())) if near else []
        self.outcomes = check_outcome(self)

    @classmethod
    def stack(cls, worlds: Sequence["WorldState"]) -> "WorldState":
        """The worlds of ``worlds``, in order, as one batch; they must share
        the arena and the step."""
        if not worlds:
            raise ValueError("a batch needs at least one world")
        arena, step_count = worlds[0].arena, worlds[0].step_count
        if any((w.arena, w.step_count) != (arena, step_count) for w in worlds):
            raise ValueError("a batch's worlds must share one arena and be at "
                             "the same step")
        return cls(arena, [e for w in worlds for e in w.evaders],
                   Pursuers.stack([w.pursuers for w in worlds]), step_count)

    def take(self, rows: list[int]) -> "WorldState":
        """The worlds ``rows`` of this batch, in that order."""
        return WorldState(self.arena, [self.evaders[k] for k in rows],
                          self.pursuers.take(rows), self.step_count)


def max_steps(cfg: ArenaConfig) -> int:
    """Step budget ceil(t_max/dt), guarded against float noise in the ratio."""
    return int(math.ceil(cfg.t_max / cfg.dt - 1e-9))


def _lock_reach(cfg: ArenaConfig) -> float:
    """The lock reach of the module docstring."""
    lock = cfg.r_p + cfg.v_e_max * cfg.dt
    return lock + 1e-9 * (lock + cfg.half_width + cfg.half_height)


def init_world(cfg: ArenaConfig, seed: int) -> WorldState:
    """Deterministically initialize a one-world batch of arena ``cfg`` from
    ``seed``.

    The evader is uniform in Omega with zero velocity; each pursuer is
    uniform in A \\ Omega (rejection sampling) with speed uniform in
    [v_p_min, v_p_max] and a uniform heading angle.  One arena serves every
    episode of a run; only the seed changes.  Draw order is fixed, so
    identical seeds produce bit-identical worlds.  A uniform draw in
    ``[low, high)`` is ``low + (high - low) * u`` of the generator's next
    double ``u``, as ``Generator.uniform`` computes it (``high - low`` of a
    range symmetric about 0 is ``2 * high``, exactly); the doubles are drawn
    in blocks of ``8 + 4 * n_pursuers``, another whenever the rejection loop
    runs short, and read by index.  A spawn can be terminal outright (a
    pursuer just outside Omega within capture radius), and the world's
    ``outcomes`` says so, as every built world's does; escape and timeout
    cannot hold at spawn (Omega lies inside the arena and ``t_max > dt``).
    """
    rng, block = np.random.default_rng(seed), 8 + 4 * cfg.n_pursuers
    u, j = rng.random(block).tolist(), 3
    s, hw, hh = cfg.spawn_half_extent, cfg.half_width, cfg.half_height
    evader = EvaderState(-s + 2 * s * u[0], -s + 2 * s * u[1])
    # u[2] is an evader heading, which nothing reads: without it every
    # pursuer draw after it would shift and every spawn change.

    xy, speed, unit = [], [], []
    for _ in range(cfg.n_pursuers):
        while True:
            if len(u) - j < 4:  # a position, then a speed and a heading
                u, j = u[j:] + rng.random(block).tolist(), 0
            px, py = -hw + 2 * hw * u[j], -hh + 2 * hh * u[j + 1]
            j += 2
            if not (abs(px) <= s and abs(py) <= s):
                break
        xy += px, py
        speed.append(cfg.v_p_min + (cfg.v_p_max - cfg.v_p_min) * u[j])
        h = -math.pi + 2 * math.pi * u[j + 1]
        unit += math.cos(h), math.sin(h)
        j += 2

    n = cfg.n_pursuers
    speeds = np.array(speed, dtype=float).reshape(1, n)
    return WorldState(cfg, [evader], Pursuers(
        np.array(xy, dtype=float).reshape(1, n, 2), speeds,
        np.array(unit, dtype=float).reshape(1, n, 2), speeds.copy()))


def step_evader(s: EvaderState, action: tuple[float, float],
                cfg: ArenaConfig) -> EvaderState:
    """Advance the evader by one step of the commanded velocity.

    The command is norm-clipped to ``v_e_max``.  The clip rounds, so the
    clipped speed can exceed ``v_e_max`` by 1 ulp: action ``(1e200, 0)``
    gives ``vx = 15.000000000000002`` at ``v_e_max = 15``, which the lock
    reach's margin (module docstring) covers.  A NaN or infinite component
    raises ``ValueError``: it has no direction to clip along.
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


def step_pursuers(p: Pursuers, evaders: Sequence[EvaderState],
                  cfg: ArenaConfig, rows: list[int]) -> Pursuers:
    """Advance every pursuer of every world by ``dt``.

    ``evaders`` holds each world's moved evader, ``E`` in order.  Within
    sensor range a pursuer chases: direction locked on its evader, speed
    ``v_p_max``.  Otherwise it patrols with its stored cruise speed and
    current direction.  Only the rows ``rows`` are range-tested, by flat
    index ``k = e * n + i``; a row not listed is taken to be beyond ``r_p``
    (:func:`step_world` lists the near rows within the lock reach).  A step
    that would leave the arena reflects the direction specularly off the
    offending wall(s) and re-integrates, preserving speed.  Directions change
    only on the rows that lock on or reflect, one row at a time through the
    angle ``h`` from ``math.atan2``; the move itself is one array expression.
    """
    n_worlds, n = p.speed.shape
    if len(evaders) != n_worlds:
        raise ValueError(f"{len(evaders)} evaders for a batch of {n_worlds} "
                         "worlds")
    unit, speed = p.unit, p.patrol_speed
    if rows:
        # Rows are addressed by flat index k = e * n + i in (E * n, 2) views.
        ev = [evaders[k // n] for k in rows]
        at = p.xy.reshape(-1, 2)[rows]
        rel = at - [(e.x, e.y) for e in ev]
        within = (np.hypot(rel[:, 0], rel[:, 1]) <= cfg.r_p).tolist()
        if True in within:
            unit, speed = unit.copy(), speed.copy()
            units, speeds = unit.reshape(-1, 2), speed.reshape(-1)
            for k, e, (x, y), hit in zip(rows, ev, at.tolist(), within):
                if hit:
                    h = math.atan2(e.y - y, e.x - x)
                    units[k] = math.cos(h), math.sin(h)
                    speeds[k] = cfg.v_p_max

    xy = p.xy + speed[..., None] * unit * cfg.dt
    # Per row: crossed a vertical wall (|x| too large), a horizontal one.
    crossed = np.abs(xy) > (cfg.half_width, cfg.half_height)
    hits = crossed.ravel().nonzero()[0].tolist()
    if hits:
        if unit is p.unit:
            unit = unit.copy()
        units, moved, flips = unit.reshape(-1, 2), xy.reshape(-1, 2), \
            crossed.reshape(-1, 2)
        start, speeds = p.xy.reshape(-1, 2), speed.ravel()
        # A corner crossing lists its row twice.
        for k in dict.fromkeys(h // 2 for h in hits):
            flip_x, flip_y = flips[k].tolist()
            c, s = units[k].tolist()
            # Specular reflection: a vertical wall flips c = cos psi (psi ->
            # pi - psi), a horizontal wall flips s = sin psi (psi -> -psi).
            h = math.atan2(-s if flip_y else s, -c if flip_x else c)
            c, s = math.cos(h), math.sin(h)
            x, y = start[k].tolist()
            v = float(speeds[k])
            units[k] = c, s
            moved[k] = x + v * c * cfg.dt, y + v * s * cfg.dt

    return Pursuers(xy, speed, unit, p.patrol_speed)


def check_outcome(w: WorldState) -> list[OutcomeKind | None]:
    """Each world's terminal test in its arena; Escaped takes precedence over
    Captured, which takes precedence over Timeout.  Captures are read from
    ``w.near``.  A built world holds it as ``outcomes``."""
    cfg, n = w.arena, w.pursuers.speed.shape[1]
    captured = {k // n for k, d in w.near if d <= cfg.capture_radius}
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


def step_world(w: WorldState, actions: Sequence[tuple[float, float]]
               ) -> WorldState:
    """One environment transition of every world of the batch in its arena:
    evaders (``actions[e]`` commands world ``e``'s), then pursuers, then
    time/termination.

    Returns the new batch, whose ``outcomes`` is where each world's outcome
    is read (None while it runs).  Stepping a batch that holds a terminal
    world raises ``RuntimeError``.  The pursuers' range test covers the rows
    of ``w.near`` within the lock reach (module docstring), and none when it
    holds no such row.
    """
    if w.outcomes.count(None) != len(w.outcomes):
        raise RuntimeError("step_world called on a terminal world")
    if len(actions) != len(w.evaders):
        raise ValueError(f"{len(actions)} actions for {len(w.evaders)} worlds")
    cfg = w.arena
    evaders = [step_evader(e, a, cfg) for e, a in zip(w.evaders, actions)]
    lock = _lock_reach(cfg)
    rows = [k for k, d in w.near if d <= lock]
    return WorldState(cfg, evaders,
                      step_pursuers(w.pursuers, evaders, cfg, rows),
                      w.step_count + 1)


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

