import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cep import env
from cep.env import (ArenaConfig, EvaderState, OutcomeKind, Pursuers,
                     WorldState, check_outcome, init_world, max_steps,
                     nearest_wall, step_evader, step_pursuers, step_world)
from cep.sr2l import EpisodeStepper

TOL = 1e-12


def small_arena(**kw) -> ArenaConfig:
    base = dict(half_width=100.0, half_height=100.0, spawn_half_extent=10.0,
                n_pursuers=5, t_max=50.0)
    base.update(kw)
    return ArenaConfig(**base)


def lock_reach(cfg: ArenaConfig) -> float:
    """Farthest a pursuer can be from the evader before a step and lock on
    in it: ``r_p`` plus the evader's largest move, with a 1e-9 margin of
    that and of the arena's extent, which sets how coarse positions round."""
    lock = cfg.r_p + cfg.v_e_max * cfg.dt
    return lock + 1e-9 * (lock + cfg.half_width + cfg.half_height)


def near_reach(cfg: ArenaConfig) -> float:
    """The radius of a built world's ``near`` list: every pursuer that may be
    sensed, captured or lock on in the next step."""
    return max(cfg.r_e, lock_reach(cfg))


def pursuer_rows(p: Pursuers, e: int = 0) -> list[tuple]:
    """Each pursuer of world ``e`` as ``(x, y, speed, unit_x, unit_y,
    patrol_speed)``."""
    return list(zip(p.xy[e, :, 0].tolist(), p.xy[e, :, 1].tolist(),
                    p.speed[e].tolist(), p.unit[e, :, 0].tolist(),
                    p.unit[e, :, 1].tolist(), p.patrol_speed[e].tolist()))


def direction_deg(p: Pursuers, i: int = 0) -> float:
    """The direction of travel of pursuer ``i`` of world 0, in degrees."""
    ux, uy = p.unit[0, i].tolist()
    return math.degrees(math.atan2(uy, ux))


def world_at(cfg: ArenaConfig, evader: EvaderState,
             pursuers: Pursuers) -> WorldState:
    return WorldState(cfg, [evader], pursuers)


# The scalar-draw spawn that init_world's block draws replaced, kept as its
# reference: one Generator.uniform call per value, in the same order.

def reference_spawn(cfg: ArenaConfig, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    s = cfg.spawn_half_extent
    ex = float(rng.uniform(-s, s))
    ey = float(rng.uniform(-s, s))
    rng.uniform(-math.pi, math.pi)
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
    return EvaderState(ex, ey), pursuer_rows(Pursuers.from_rows(rows))


# The scalar pursuer step that step_pursuers replaced, kept as its reference.
# A reference row is ``(x, y, speed, heading, patrol_speed)``.

def _advance(x: float, y: float, speed: float, heading: float,
             dt: float) -> tuple[float, float]:
    return x + speed * math.cos(heading) * dt, y + speed * math.sin(heading) * dt


def _reflect_heading(heading: float, flip_x: bool, flip_y: bool) -> float:
    c, s = math.cos(heading), math.sin(heading)
    if flip_x:
        c = -c
    if flip_y:
        s = -s
    return math.atan2(s, c)


def reference_step(row: tuple, evader_pos: tuple[float, float],
                   cfg: ArenaConfig) -> tuple:
    x, y, _, heading, patrol_speed = row
    ex, ey = evader_pos
    dist = math.hypot(ex - x, ey - y)
    if dist <= cfg.r_p:
        heading = math.atan2(ey - y, ex - x)
        speed = cfg.v_p_max
    else:
        speed = patrol_speed

    nx, ny = _advance(x, y, speed, heading, cfg.dt)
    flip_x = abs(nx) > cfg.half_width
    flip_y = abs(ny) > cfg.half_height
    if flip_x or flip_y:
        heading = _reflect_heading(heading, flip_x, flip_y)
        nx, ny = _advance(x, y, speed, heading, cfg.dt)
    return nx, ny, speed, heading, patrol_speed


def as_unit_row(row: tuple) -> tuple:
    """A reference row in the form of :func:`pursuer_rows`: the heading
    becomes ``(math.cos(h), math.sin(h))``."""
    x, y, speed, heading, patrol_speed = row
    return x, y, speed, math.cos(heading), math.sin(heading), patrol_speed


@st.composite
def pursuer_scenes(draw):
    """A small arena, 0-40 pursuers, their reference rows and an evader path
    of 1-20 steps.

    Each pursuer is, at random, anywhere, within ``r_p`` of the evader's first
    position (chase), within one step of a wall (single reflection) or of a
    corner (double reflection); their patrol speeds differ from their
    current speeds, as after a chase.
    """
    cfg = small_arena(half_width=25.0, half_height=25.0, spawn_half_extent=5.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hw, hh, reach = cfg.half_width, cfg.half_height, cfg.v_p_max * cfg.dt
    evader = rng.uniform(-hw, hw), rng.uniform(-hh, hh)

    def near_wall(half: float) -> float:
        return rng.choice((-1.0, 1.0)) * (half - rng.uniform(0.0, reach))

    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = rng.integers(4)
        if kind == 0:
            x, y = rng.uniform(-hw, hw), rng.uniform(-hh, hh)
        elif kind == 1:
            r, a = rng.uniform(0.0, cfg.r_p), rng.uniform(-math.pi, math.pi)
            x = min(max(evader[0] + r * math.cos(a), -hw), hw)
            y = min(max(evader[1] + r * math.sin(a), -hh), hh)
        elif kind == 2:
            x, y = near_wall(hw), rng.uniform(-hh, hh)
            if rng.integers(2):
                x, y = rng.uniform(-hw, hw), near_wall(hh)
        else:
            x, y = near_wall(hw), near_wall(hh)
        rows.append((x, y, rng.uniform(cfg.v_p_min, cfg.v_p_max),
                     rng.uniform(-math.pi, math.pi)))
    p = Pursuers.from_rows(rows)
    p.patrol_speed = rng.uniform(cfg.v_p_min, cfg.v_p_max, (1, len(rows)))
    reference = [(x, y, speed, h, patrol_speed)
                 for (x, y, speed, h), patrol_speed
                 in zip(rows, p.patrol_speed[0].tolist())]

    path = [evader]
    for _ in range(draw(st.integers(0, 19))):
        ex, ey = path[-1]
        path.append((min(max(ex + rng.uniform(-1.5, 1.5), -hw), hw),
                     min(max(ey + rng.uniform(-1.5, 1.5), -hh), hh)))
    return cfg, p, reference, path


class TestConfigValidation:
    def test_defaults_valid(self):
        ArenaConfig()

    @pytest.mark.parametrize("bad", [
        dict(half_width=-1.0),
        dict(v_p_min=11.0),          # above v_p_max
        dict(spawn_half_extent=100.0),
        dict(capture_radius=10.0),   # not < r_p
        dict(dt=0.0),
        dict(t_max=0.05),            # not > dt
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            small_arena(**bad)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        names = [f.name for f in fields(ArenaConfig)
                 if isinstance(getattr(ArenaConfig(), f.name), float)]
        assert len(names) == 11
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                small_arena(**{name: value})


class TestInitWorld:
    def test_same_seed_bit_identical(self):
        cfg = small_arena()
        a, b = init_world(cfg, 42), init_world(cfg, 42)
        assert a.evaders == b.evaders
        assert pursuer_rows(a.pursuers) == pursuer_rows(b.pursuers)
        assert a.step_count == b.step_count == 0

    @pytest.mark.parametrize("seed", range(25))
    def test_pursuers_outside_spawn_region(self, seed):
        cfg = small_arena(n_pursuers=20)
        w = init_world(cfg, seed)
        for x, y, speed, _, _, patrol_speed in pursuer_rows(w.pursuers):
            assert not (abs(x) <= cfg.spawn_half_extent
                        and abs(y) <= cfg.spawn_half_extent)
            assert abs(x) <= cfg.half_width and abs(y) <= cfg.half_height
            assert cfg.v_p_min <= speed <= cfg.v_p_max
            assert speed == patrol_speed

    @pytest.mark.parametrize("seed", range(10))
    def test_evader_spawn(self, seed):
        cfg = small_arena()
        w = init_world(cfg, seed)
        (evader,) = w.evaders
        assert abs(evader.x) <= cfg.spawn_half_extent
        assert abs(evader.y) <= cfg.spawn_half_extent
        assert evader.vx == 0.0 and evader.vy == 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_spawn_outcome_matches_check_outcome(self, seed):
        # A crowded 6x6 arena, where a spawn is often captured outright.
        # check_outcome's rule, measured here apart from it: a spawn is
        # captured exactly when some pursuer is within capture radius.
        cfg = ArenaConfig(half_width=3.0, half_height=3.0,
                          spawn_half_extent=0.5, n_pursuers=seed % 4,
                          capture_radius=2.9, r_p=3.0)
        for k in range(100):
            w = init_world(cfg, 12 * k + seed)
            (e,) = w.evaders
            captured = any(math.hypot(x - e.x, y - e.y) <= cfg.capture_radius
                           for x, y in w.pursuers.xy[0].tolist())
            assert w.outcomes == [OutcomeKind.CAPTURED if captured else None]

    def test_pursuer_count(self):
        w = init_world(small_arena(n_pursuers=7), 0)
        assert w.pursuers.speed.shape == (1, 7)
        assert w.pursuers.xy.shape == w.pursuers.unit.shape == (1, 7, 2)

    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(0, 100),
           spawn=st.sampled_from([1.0, 10.0, 45.0]))
    @settings(deadline=None, max_examples=150)
    def test_equals_scalar_draws(self, seed, n, spawn):
        # A spawn half-extent of 45 in a 50 m arena rejects most pursuer
        # draws, so the retries run through several blocks of doubles.
        cfg = small_arena(half_width=50.0, half_height=50.0,
                          spawn_half_extent=spawn, n_pursuers=n)
        w = init_world(cfg, seed)
        evader, rows = reference_spawn(cfg, seed)
        assert w.evaders == [evader]
        assert pursuer_rows(w.pursuers) == rows


class TestStepEvader:
    def test_straight_motion(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (15.0, 0.0), cfg)
        assert abs(s.x - 1.5) < TOL and abs(s.y) < TOL

    def test_norm_clipping(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (30.0, 0.0), cfg)
        assert abs(s.vx - 15.0) < TOL and abs(s.vy) < TOL

    def test_zero_action_identity(self):
        cfg = small_arena()
        before = EvaderState(3.0, -4.0, 2.0, 1.0)
        s = step_evader(before, (0.0, 0.0), cfg)
        assert s.x == before.x and s.y == before.y
        assert s.vx == 0.0 and s.vy == 0.0

    @given(vx=st.floats(allow_nan=False, allow_infinity=False),
           vy=st.floats(allow_nan=False, allow_infinity=False))
    @settings(deadline=None, max_examples=200)
    def test_speed_bound(self, vx, vy):
        # The clip overshoots v_e_max by at most 1 ulp, over the whole
        # finite range: the lock-skip margin of step_world rests on it.
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (vx, vy), cfg)
        assert math.hypot(s.vx, s.vy) <= cfg.v_e_max * (1 + 2**-50)

    def test_clip_overshoots_by_one_ulp(self):
        s = step_evader(EvaderState(0.0, 0.0), (1e200, 0.0), small_arena())
        assert s.vx == 15.000000000000002 == math.nextafter(15.0, math.inf)

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        # A NaN position would leave the arena test false: scored ESCAPED.
        cfg = small_arena()
        with pytest.raises(ValueError, match="not finite"):
            step_evader(EvaderState(0.0, 0.0), action, cfg)
        with pytest.raises(ValueError, match="not finite"):
            step_world(init_world(cfg, 0), [action])

    def test_huge_finite_action_clipped(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (1e308, 1e308), cfg)
        assert abs(math.hypot(s.vx, s.vy) - cfg.v_e_max) < 1e-9
        assert abs(s.vx - s.vy) < TOL


def one(x, y, speed, heading) -> Pursuers:
    return Pursuers.from_rows([(x, y, speed, heading)])


def full_lock_test(p: Pursuers, positions, cfg: ArenaConfig) -> Pursuers:
    """``step_pursuers`` with every row range-tested, the evader of world
    ``e`` at ``positions[e]``: the full lock test."""
    return step_pursuers(p, [EvaderState(x, y) for x, y in positions], cfg,
                         list(range(p.speed.size)))


class TestStepPursuer:
    def test_patrol_straight(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=5.0, heading=0.0)
        # evader out of sensor range
        p2 = full_lock_test(p, [(50.0, 50.0)], cfg)
        assert abs(p2.xy[0, 0, 0] - 0.5) < TOL and abs(p2.xy[0, 0, 1]) < TOL
        assert p2.speed[0, 0] == 5.0
        assert p2.unit[0, 0].tolist() == p.unit[0, 0].tolist()

    def test_specular_reflection_vertical_wall(self):
        cfg = small_arena()
        p = one(99.9, 0.0, speed=5.0, heading=math.radians(30.0))
        p2 = full_lock_test(p, [(-50.0, -50.0)], cfg)
        assert abs(direction_deg(p2) - 150.0) < 1e-9
        assert p2.speed[0, 0] == 5.0

    def test_corner_double_reflection(self):
        cfg = small_arena()
        p = one(99.9, 99.9, speed=5.0, heading=math.radians(45.0))
        p2 = full_lock_test(p, [(-50.0, -50.0)], cfg)
        assert abs(direction_deg(p2) + 135.0) < 1e-9
        assert np.all(np.abs(p2.xy) <= 100.0)

    def test_reflection_preserves_speed_and_containment(self):
        cfg = small_arena()
        rng = np.random.default_rng(3)
        p = Pursuers.from_rows(
            (rng.uniform(-cfg.half_width, cfg.half_width),
             rng.uniform(-cfg.half_height, cfg.half_height),
             rng.uniform(5, 10), rng.uniform(-math.pi, math.pi))
            for _ in range(200))
        p2 = full_lock_test(p, [(0.0, 0.0)], cfg)
        chased = (np.hypot(p.xy[0, :, 0], p.xy[0, :, 1]) <= cfg.r_p).tolist()
        assert any(chased)
        for (x, y, speed, *_), before, chase in zip(pursuer_rows(p2),
                                                    p.speed[0].tolist(),
                                                    chased):
            assert abs(x) <= cfg.half_width + 1e-9
            assert abs(y) <= cfg.half_height + 1e-9
            assert speed == (cfg.v_p_max if chase else before)

    def test_chase_on_detection(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=5.0, heading=2.0)
        p2 = full_lock_test(p, [(cfg.r_p - 1e-6, 0.0)], cfg)
        assert p2.speed[0, 0] == cfg.v_p_max
        assert abs(direction_deg(p2)) < 1e-6  # bearing to evader

    def test_no_chase_beyond_range(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=5.0, heading=0.0)
        p2 = full_lock_test(p, [(cfg.r_p + 1e-3, 0.0)], cfg)
        assert p2.speed[0, 0] == 5.0
        assert p2.unit[0, 0].tolist() == p.unit[0, 0].tolist()
        assert abs(p2.xy[0, 0, 0] - 0.5) < TOL

    def test_patrol_speed_restored_after_chase(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=6.0, heading=0.5)
        chased = full_lock_test(p, [(1.0, 0.0)], cfg)
        assert chased.speed[0, 0] == cfg.v_p_max
        assert abs(direction_deg(chased)) < 1e-9  # aimed at the evader
        released = full_lock_test(chased, [(80.0, 80.0)], cfg)
        assert released.speed[0, 0] == 6.0
        assert released.unit[0, 0].tolist() == chased.unit[0, 0].tolist()

    @given(scene=pursuer_scenes())
    @settings(deadline=None, max_examples=120)
    def test_equals_scalar_reference(self, scene):
        cfg, p, rows, evader_path = scene
        for evader in evader_path:
            # The step decides chase with np.hypot, as detection does; it may
            # differ from math.hypot in the last ulp, so a distance that
            # close to r_p is outside what exact equality can check.
            assume(all(abs(math.hypot(evader[0] - r[0], evader[1] - r[1])
                           - cfg.r_p) > 1e-12 for r in rows))
            before = pursuer_rows(p)
            rows = [reference_step(r, evader, cfg) for r in rows]
            q = full_lock_test(p, [evader], cfg)
            assert pursuer_rows(q) == [as_unit_row(r) for r in rows]
            # The step writes no array of the world it advanced.
            assert pursuer_rows(p) == before
            p = q

    @given(scenes=st.lists(pursuer_scenes(), min_size=1, max_size=5))
    @settings(deadline=None, max_examples=60)
    def test_batch_equals_each_world(self, scenes):
        # The worlds of a batch have one pursuer count: the smallest here.
        cfg = scenes[0][0]
        n = min(p.speed.shape[1] for _, p, _, _ in scenes)
        worlds = [Pursuers(*(getattr(p, f)[:, :n] for f in
                             ("xy", "speed", "unit", "patrol_speed")))
                  for _, p, _, _ in scenes]
        for step in range(3):
            evaders = [path[min(step, len(path) - 1)]
                       for _, _, _, path in scenes]
            batch = full_lock_test(Pursuers.stack(worlds), evaders, cfg)
            worlds = [full_lock_test(p, [evader], cfg)
                      for p, evader in zip(worlds, evaders)]
            for e, p in enumerate(worlds):
                assert pursuer_rows(batch, e) == pursuer_rows(p)


# Pursuers at (r_p + v_e_max * dt) * (1 + f): on and around the lock bound
# (f <= 0 can lock on), then beyond lock_reach, whose margin is 1e-8 to
# 1.8e-8 of the bound in a 100 m arena: only there is the range test skipped.
LOCK_FS = (-1e-12, 0.0, 1e-12, 1e-10, 2e-9, 1e-7)
# The sweep's r_ratio 0.75 (r_p = 20 > r_e): the lock bound sets the reach.
# In the 1e9 m arena a position rounds to ~1e-7 m, far beyond a margin of
# 1e-9 of the lock bound alone.
LOCK_ARENAS = (small_arena(), small_arena(r_p=20.0),
               small_arena(half_width=1e9, half_height=1e9, r_p=3.0,
                           capture_radius=1.0))


@st.composite
def lock_boundary_scenes(draw, cfg=None, n=None):
    """An arena (``cfg``, or one of :data:`LOCK_ARENAS`), a live one-world
    batch whose evader has pursuers at the :data:`LOCK_FS` distances and at
    random ones (``n`` in all, if given, at least 3), and a command of speed
    at or above ``v_e_max``, up to 1e300 times it, toward, away from or
    across the first pursuer, or in a random direction."""
    cfg = draw(st.sampled_from(LOCK_ARENAS)) if cfg is None else cfg
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lock = cfg.r_p + cfg.v_e_max * cfg.dt
    room_x, room_y = cfg.half_width - 3 * lock, cfg.half_height - 3 * lock
    ex, ey = rng.uniform(-room_x, room_x), rng.uniform(-room_y, room_y)
    dists = [lock * (1 + f)
             for f in draw(st.lists(st.sampled_from(LOCK_FS), max_size=3))]
    dists += rng.uniform(1.001 * cfg.capture_radius, 3 * lock,
                         draw(st.integers(0, 4)) if n is None
                         else n - len(dists)).tolist()
    assume(dists)
    rows, angles = [], rng.uniform(-math.pi, math.pi, len(dists)).tolist()
    for d, a in zip(dists, angles):
        rows.append((ex + d * math.cos(a), ey + d * math.sin(a),
                     rng.uniform(cfg.v_p_min, cfg.v_p_max),
                     rng.uniform(-math.pi, math.pi)))
    turn = draw(st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2,
                                 None]))
    heading = rng.uniform(-math.pi, math.pi) if turn is None \
        else angles[0] + turn
    speed = cfg.v_e_max * draw(st.sampled_from(
        [1.0, 1.0 + 2**-52, 2.0, 1e10, 1e300]))
    w = world_at(cfg, EvaderState(ex, ey), Pursuers.from_rows(rows))
    return w, (speed * math.cos(heading), speed * math.sin(heading))


def assert_steps_as_the_full_lock_test(w: WorldState, actions) -> Pursuers:
    """``step_world`` moves ``w``'s pursuers, bit for bit, as
    :func:`full_lock_test` does; returns them."""
    stepped = step_world(w, actions)
    want = full_lock_test(w.pursuers, [(e.x, e.y) for e in stepped.evaders],
                          w.arena)
    for f in fields(Pursuers):
        have = getattr(stepped.pursuers, f.name)
        assert have.tobytes() == getattr(want, f.name).tobytes(), f.name
    return stepped.pursuers


class TestStepWorld:
    def test_escape(self):
        cfg = small_arena(n_pursuers=0)
        w = world_at(cfg, EvaderState(99.9, 0.0), init_world(cfg, 0).pursuers)
        (outcome,) = step_world(w, [(15.0, 0.0)]).outcomes
        assert outcome is OutcomeKind.ESCAPED

    def test_capture(self):
        cfg = small_arena(n_pursuers=1)
        # chasing pursuer closes 1.0 per step: 2.9 -> 1.9 <= capture radius
        w = world_at(cfg, EvaderState(0.0, 0.0), one(2.9, 0.0, 5.0, math.pi))
        (outcome,) = step_world(w, [(0.0, 0.0)]).outcomes
        assert outcome is OutcomeKind.CAPTURED

    def test_timeout_at_budget(self):
        cfg = small_arena(n_pursuers=0, t_max=1.0, dt=0.1)
        w = world_at(cfg, EvaderState(0.0, 0.0), init_world(cfg, 0).pursuers)
        outcome = None
        steps = 0
        while outcome is None:
            w = step_world(w, [(0.0, 0.0)])
            (outcome,) = w.outcomes
            steps += 1
        assert outcome is OutcomeKind.TIMEOUT
        assert steps == max_steps(cfg) == 10

    def test_step_terminal_world_raises(self):
        # Run the evader east across the wall, then step once more.
        cfg = small_arena(n_pursuers=0)
        w, outcome = init_world(cfg, 0), None
        while outcome is None:
            w = step_world(w, [(15.0, 0.0)])
            (outcome,) = w.outcomes
        assert outcome is OutcomeKind.ESCAPED
        assert check_outcome(w) == [OutcomeKind.ESCAPED]
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)])

    def test_one_action_per_world(self):
        cfg = small_arena()
        w = WorldState.stack([init_world(cfg, 0), init_world(cfg, 1)])
        with pytest.raises(ValueError, match="1 actions for 2 worlds"):
            step_world(w, [(0.0, 0.0)])

    def test_step_after_capture_raises(self):
        cfg = small_arena(n_pursuers=1)
        w = world_at(cfg, EvaderState(0.0, 0.0), one(2.9, 0.0, 5.0, math.pi))
        w = step_world(w, [(0.0, 0.0)])
        (outcome,) = w.outcomes
        assert outcome is OutcomeKind.CAPTURED
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)])

    def test_terminal_spawn_sets_outcome(self):
        # A crowded 6x6 arena: some pursuer spawns within capture radius.
        cfg = ArenaConfig(half_width=3.0, half_height=3.0,
                          spawn_half_extent=0.5, n_pursuers=20,
                          capture_radius=2.9, r_p=3.0)
        w = init_world(cfg, 0)
        assert w.outcomes == [OutcomeKind.CAPTURED]
        stepper = EpisodeStepper(w)
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)])
        assert stepper.drop_ended() == [(0, w.outcomes[0])]
        assert stepper.live == []

    def test_determinism_full_episode(self):
        cfg = small_arena(n_pursuers=8)
        actions = np.random.default_rng(0).uniform(-15, 15, size=(300, 2))

        def run():
            w = init_world(cfg, 7)
            trace = []
            outcome = None
            for a in actions:
                w = step_world(w, [tuple(a)])
                (outcome,) = w.outcomes
                trace.append((w.evaders[0].x, w.evaders[0].y,
                               pursuer_rows(w.pursuers)))
                if outcome is not None:
                    break
            return trace, outcome

        t1, o1 = run()
        t2, o2 = run()
        assert t1 == t2
        assert o1 == o2

    @given(scene=lock_boundary_scenes())
    @settings(deadline=None, max_examples=300)
    def test_skipped_lock_test_moves_as_the_full_one(self, scene):
        # step_world range-tests only the near rows within lock_reach; the
        # pursuers move as if every row had been tested.
        w, action = scene
        assert_steps_as_the_full_lock_test(w, [action])

    @given(scenes=st.tuples(st.sampled_from(LOCK_ARENAS), st.integers(3, 7))
           .flatmap(lambda cfg_n: st.lists(lock_boundary_scenes(*cfg_n),
                                          min_size=2, max_size=5)))
    @settings(deadline=None, max_examples=150)
    def test_batched_lock_test_moves_as_the_full_one(self, scenes):
        # World e's rows are flat indices e * n + i: the lock test of a
        # world after the first finds its evader as the full test does.
        w = WorldState.stack([w for w, _ in scenes])
        assert_steps_as_the_full_lock_test(w, [a for _, a in scenes])

    @pytest.mark.parametrize("cfg", LOCK_ARENAS[:2], ids=["r_e", "r_p=20"])
    @pytest.mark.parametrize("f", LOCK_FS)
    def test_lock_bound(self, cfg, f, monkeypatch):
        # The evader runs at v_e_max straight at a pursuer at the lock bound
        # times 1 + f: it locks on at f <= 0, and only beyond lock_reach is
        # the range test skipped.
        skips = []

        def spy(p, evaders, cfg, rows):
            skips.append(not rows)
            return step_pursuers(p, evaders, cfg, rows)

        monkeypatch.setattr(env, "step_pursuers", spy)
        d = (cfg.r_p + cfg.v_e_max * cfg.dt) * (1 + f)
        w = world_at(cfg, EvaderState(0.0, 0.0), one(d, 0.0, 5.0, 0.0))
        moved = assert_steps_as_the_full_lock_test(w, [(cfg.v_e_max, 0.0)])
        assert (moved.speed[0, 0] == cfg.v_p_max) == (f <= 0)
        assert skips == [d > lock_reach(cfg)] == [f == LOCK_FS[-1]]

    @pytest.mark.parametrize("seed", range(5))
    def test_termination_trichotomy_and_containment(self, seed):
        cfg = small_arena(t_max=20.0, n_pursuers=6)
        w = init_world(cfg, seed)
        rng = np.random.default_rng(seed)
        (outcome,) = check_outcome(w)
        steps = 0
        while outcome is None:
            w = step_world(w, [tuple(rng.uniform(-15, 15, 2))])
            (outcome,) = w.outcomes
            steps += 1
            for x, y in w.pursuers.xy[0].tolist():
                assert abs(x) <= cfg.half_width + 1e-9
                assert abs(y) <= cfg.half_height + 1e-9
            assert steps <= max_steps(cfg)
        assert outcome in (OutcomeKind.ESCAPED, OutcomeKind.CAPTURED,
                           OutcomeKind.TIMEOUT)


def assert_offsets_of_a_fresh_build(w: WorldState) -> None:
    """``w``'s distances equal, bit for bit, those of the same evaders and
    pursuers built anew, and its ``near`` list is its own distances within
    :func:`near_reach`, by flat index."""
    fresh = WorldState(w.arena, w.evaders, w.pursuers, w.step_count)
    for have, want in zip(w.offsets, fresh.offsets):
        assert have.shape == want.shape and have.tobytes() == want.tobytes()
    reach = near_reach(w.arena)
    assert w.near == [(k, d) for k, d in enumerate(w.offsets[1].ravel()
                                                   .tolist()) if d <= reach]


class TestOffsets:
    ARENAS = (small_arena(n_pursuers=8),
              # r_p = r_e / 0.75, as the sweep's r_ratio 0.75 sets it: the
              # lock reach r_p + v_e_max * dt, not r_e, sets the near list's.
              small_arena(half_width=40.0, half_height=40.0, n_pursuers=8,
                          r_p=20.0))

    @given(cfg=st.sampled_from(ARENAS),
           seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           steps=st.integers(0, 8), draw_seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_every_builder_sets_the_distances_of_its_world(self, cfg, seeds,
                                                           steps, draw_seed):
        # init_world, step_world (which hands in its evader positions),
        # take, stack and replace each build a world whose distances and
        # near list are its own.
        rng = np.random.default_rng(draw_seed)
        w = WorldState.stack([init_world(cfg, s) for s in seeds])
        worlds = [w]
        for _ in range(steps):
            live = [k for k, o in enumerate(w.outcomes) if o is None]
            if not live:
                break
            actions = rng.uniform(-15.0, 15.0, (len(live), 2)).tolist()
            w = step_world(w.take(live), [tuple(a) for a in actions])
            worlds.append(w)
        k = len(w.evaders)
        rows = rng.permutation(k)[:rng.integers(1, k + 1)].tolist()
        worlds += [w.take(rows), WorldState.stack([w.take(rows), w])]
        for world in worlds:
            assert_offsets_of_a_fresh_build(world)

        # replace builds anew: the moved evaders' distances, not stale ones.
        moved = [EvaderState(e.x + 1.0, e.y - 0.5) for e in w.evaders]
        shifted = replace(w, evaders=moved)
        assert_offsets_of_a_fresh_build(shifted)
        assert np.allclose(shifted.offsets[0],
                           w.offsets[0] - np.array([1.0, -0.5]), atol=1e-9)


def assert_outcomes_of_a_fresh_build(w: WorldState) -> None:
    """``w``'s outcomes equal the terminal test of the same arena, evaders,
    pursuers and step built anew."""
    fresh = WorldState(w.arena, w.evaders, w.pursuers, w.step_count)
    assert w.outcomes == check_outcome(fresh)


class TestOutcomes:
    # A 10x10 arena with a 1 s budget: within its 10 steps a random walk
    # escapes, is captured (at spawn, too) or times out.
    CFG = ArenaConfig(half_width=5.0, half_height=5.0, spawn_half_extent=2.0,
                      n_pursuers=3, capture_radius=1.5, r_p=2.0, t_max=1.0)

    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
           draw_seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_every_builder_sets_the_outcomes_of_its_world(self, seeds,
                                                          draw_seed):
        # init_world, step_world, take, stack and replace each build a
        # world whose outcomes are its own, up to the last step.
        rng = np.random.default_rng(draw_seed)
        w = WorldState.stack([init_world(self.CFG, s) for s in seeds])
        worlds = [w]
        while (live := [k for k, o in enumerate(w.outcomes) if o is None]):
            actions = rng.uniform(-15.0, 15.0, (len(live), 2)).tolist()
            worlds.append(w.take(live))
            w = step_world(worlds[-1], [tuple(a) for a in actions])
            worlds.append(w)
        rows = rng.permutation(len(w.evaders)).tolist()
        worlds += [w.take(rows), WorldState.stack([w.take(rows), w])]
        # Evaders moved anywhere in and around the arena, from the spawn on.
        for world in (worlds[0], w):
            moved = [EvaderState(*rng.uniform(-7.0, 7.0, 2).tolist())
                     for _ in world.evaders]
            worlds.append(replace(world, evaders=moved))
        for world in worlds:
            assert_outcomes_of_a_fresh_build(world)
        assert None not in w.outcomes

    def test_a_replaced_evader_outside_the_arena_has_escaped(self):
        # Before: replace kept the built world's outcomes, [None], and
        # step_world stepped the escaped world.
        w = replace(init_world(self.CFG, 0), evaders=[EvaderState(1e3, 0.0)])
        assert w.outcomes == [OutcomeKind.ESCAPED]
        with pytest.raises(RuntimeError, match="terminal world"):
            step_world(w, [(0.0, 0.0)])

    def test_stack_needs_one_arena(self):
        # A batch's worlds are stepped and sensed in one arena.
        other = replace(self.CFG, r_e=14.0)
        with pytest.raises(ValueError, match="one arena"):
            WorldState.stack([init_world(self.CFG, 0), init_world(other, 1)])

    def test_stack_needs_a_world(self):
        with pytest.raises(ValueError, match="at least one world"):
            WorldState.stack([])

    def test_one_evader_per_world(self):
        # Broadcast against one world's pursuers, a second evader would be
        # measured against them as if they were its own.
        cfg = ArenaConfig(n_pursuers=1)
        p = Pursuers.from_rows([(30.0, 0.0, 5.0, 0.0)])
        two = [EvaderState(0.0, 0.0), EvaderState(30.0, 5.0)]
        with pytest.raises(ValueError, match="2 evaders for a batch of 1 "
                                             "worlds"):
            WorldState(cfg, two, p)
        with pytest.raises(ValueError, match="2 evaders for a batch of 1 "
                                             "worlds"):
            step_pursuers(p, two, cfg, [0])
        with pytest.raises(ValueError, match="0 evaders for a batch of 1 "
                                             "worlds"):
            step_pursuers(p, [], cfg, [])


class TestNearestWall:
    def test_center(self):
        cfg = small_arena()
        d, _ = nearest_wall((0.0, 0.0), cfg)
        assert abs(d - 100.0) < TOL

    def test_near_east_wall(self):
        cfg = small_arena()
        d, direction = nearest_wall((90.0, 0.0), cfg)
        assert abs(d - 10.0) < TOL
        assert direction == (1.0, 0.0)

    def test_corner(self):
        cfg = small_arena()
        d, _ = nearest_wall((99.9, 99.9), cfg)
        assert abs(d - 0.1) < 1e-9

    def test_outside_clamps_to_zero(self):
        cfg = small_arena()
        assert nearest_wall((101.0, 0.0), cfg)[0] == 0.0


class TestNearestWallDistance:
    def test_examples(self):
        cfg = small_arena()
        assert abs(nearest_wall((0.0, 0.0), cfg)[0] - 100.0) < TOL
        assert abs(nearest_wall((90.0, 0.0), cfg)[0] - 10.0) < TOL
        assert abs(nearest_wall((99.9, 99.9), cfg)[0] - 0.1) < 1e-9
