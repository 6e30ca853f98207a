import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cep.env import (ArenaConfig, EvaderState, OutcomeKind, Pursuers,
                     WorldState, check_outcome, init_world, max_steps,
                     nearest_wall, objective_value, step_evader,
                     step_pursuers, step_world)
from cep.sensing import SensingConfig
from cep.sr2l import EpisodeStepper

TOL = 1e-12


def small_arena(**kw) -> ArenaConfig:
    base = dict(half_width=100.0, half_height=100.0, spawn_half_extent=10.0,
                n_pursuers=5, t_max=50.0)
    base.update(kw)
    return ArenaConfig(**base)


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


def world_at(evader: EvaderState, pursuers: Pursuers) -> WorldState:
    return WorldState([evader], pursuers)


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
        cfg = ArenaConfig(half_width=3.0, half_height=3.0,
                          spawn_half_extent=0.5, n_pursuers=seed % 4,
                          capture_radius=2.9, r_p=3.0)
        w = init_world(cfg, seed)
        assert w.outcomes == check_outcome(w, cfg)

    def test_pursuer_count(self):
        w = init_world(small_arena(n_pursuers=7), 0)
        assert w.pursuers.speed.shape == (1, 7)
        assert w.pursuers.xy.shape == w.pursuers.unit.shape == (1, 7, 2)

    @given(seed=st.integers(0, 2**63 - 1), n=st.integers(0, 40),
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

    @given(vx=st.floats(-50, 50), vy=st.floats(-50, 50))
    @settings(deadline=None, max_examples=50)
    def test_speed_bound(self, vx, vy):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (vx, vy), cfg)
        assert math.hypot(s.vx, s.vy) <= cfg.v_e_max + 1e-9

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        # A NaN position would leave the arena test false: scored ESCAPED.
        cfg = small_arena()
        with pytest.raises(ValueError, match="not finite"):
            step_evader(EvaderState(0.0, 0.0), action, cfg)
        with pytest.raises(ValueError, match="not finite"):
            step_world(init_world(cfg, 0), [action], cfg)

    def test_huge_finite_action_clipped(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (1e308, 1e308), cfg)
        assert abs(math.hypot(s.vx, s.vy) - cfg.v_e_max) < 1e-9
        assert abs(s.vx - s.vy) < TOL


def one(x, y, speed, heading) -> Pursuers:
    return Pursuers.from_rows([(x, y, speed, heading)])


class TestStepPursuer:
    def test_patrol_straight(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=5.0, heading=0.0)
        # evader out of sensor range
        p2 = step_pursuers(p, (50.0, 50.0), cfg)
        assert abs(p2.xy[0, 0, 0] - 0.5) < TOL and abs(p2.xy[0, 0, 1]) < TOL
        assert p2.speed[0, 0] == 5.0
        assert p2.unit[0, 0].tolist() == p.unit[0, 0].tolist()

    def test_specular_reflection_vertical_wall(self):
        cfg = small_arena()
        p = one(99.9, 0.0, speed=5.0, heading=math.radians(30.0))
        p2 = step_pursuers(p, (-50.0, -50.0), cfg)
        assert abs(direction_deg(p2) - 150.0) < 1e-9
        assert p2.speed[0, 0] == 5.0

    def test_corner_double_reflection(self):
        cfg = small_arena()
        p = one(99.9, 99.9, speed=5.0, heading=math.radians(45.0))
        p2 = step_pursuers(p, (-50.0, -50.0), cfg)
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
        p2 = step_pursuers(p, (0.0, 0.0), cfg)
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
        p2 = step_pursuers(p, (cfg.r_p - 1e-6, 0.0), cfg)
        assert p2.speed[0, 0] == cfg.v_p_max
        assert abs(direction_deg(p2)) < 1e-6  # bearing to evader

    def test_no_chase_beyond_range(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=5.0, heading=0.0)
        p2 = step_pursuers(p, (cfg.r_p + 1e-3, 0.0), cfg)
        assert p2.speed[0, 0] == 5.0
        assert p2.unit[0, 0].tolist() == p.unit[0, 0].tolist()
        assert abs(p2.xy[0, 0, 0] - 0.5) < TOL

    def test_patrol_speed_restored_after_chase(self):
        cfg = small_arena()
        p = one(0.0, 0.0, speed=6.0, heading=0.5)
        chased = step_pursuers(p, (1.0, 0.0), cfg)
        assert chased.speed[0, 0] == cfg.v_p_max
        assert abs(direction_deg(chased)) < 1e-9  # aimed at the evader
        released = step_pursuers(chased, (80.0, 80.0), cfg)
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
            q = step_pursuers(p, evader, cfg)
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
            batch = step_pursuers(Pursuers.stack(worlds), evaders, cfg)
            worlds = [step_pursuers(p, evader, cfg)
                      for p, evader in zip(worlds, evaders)]
            for e, p in enumerate(worlds):
                assert pursuer_rows(batch, e) == pursuer_rows(p)


class TestStepWorld:
    def test_escape(self):
        cfg = small_arena(n_pursuers=0)
        w = world_at(EvaderState(99.9, 0.0), init_world(cfg, 0).pursuers)
        (outcome,) = step_world(w, [(15.0, 0.0)], cfg).outcomes
        assert outcome is OutcomeKind.ESCAPED

    def test_capture(self):
        cfg = small_arena(n_pursuers=1)
        # chasing pursuer closes 1.0 per step: 2.9 -> 1.9 <= capture radius
        w = world_at(EvaderState(0.0, 0.0), one(2.9, 0.0, 5.0, math.pi))
        (outcome,) = step_world(w, [(0.0, 0.0)], cfg).outcomes
        assert outcome is OutcomeKind.CAPTURED

    def test_timeout_at_budget(self):
        cfg = small_arena(n_pursuers=0, t_max=1.0, dt=0.1)
        w = world_at(EvaderState(0.0, 0.0), init_world(cfg, 0).pursuers)
        outcome = None
        steps = 0
        while outcome is None:
            w = step_world(w, [(0.0, 0.0)], cfg)
            (outcome,) = w.outcomes
            steps += 1
        assert outcome is OutcomeKind.TIMEOUT
        assert steps == max_steps(cfg) == 10

    def test_step_terminal_world_raises(self):
        # Run the evader east across the wall, then step once more.
        cfg = small_arena(n_pursuers=0)
        w, outcome = init_world(cfg, 0), None
        while outcome is None:
            w = step_world(w, [(15.0, 0.0)], cfg)
            (outcome,) = w.outcomes
        assert outcome is OutcomeKind.ESCAPED
        assert check_outcome(w, cfg) == [OutcomeKind.ESCAPED]
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)], cfg)

    def test_one_action_per_world(self):
        cfg = small_arena()
        w = WorldState.stack([init_world(cfg, 0), init_world(cfg, 1)])
        with pytest.raises(ValueError, match="1 actions for 2 worlds"):
            step_world(w, [(0.0, 0.0)], cfg)

    def test_step_after_capture_raises(self):
        cfg = small_arena(n_pursuers=1)
        w = world_at(EvaderState(0.0, 0.0), one(2.9, 0.0, 5.0, math.pi))
        w = step_world(w, [(0.0, 0.0)], cfg)
        (outcome,) = w.outcomes
        assert outcome is OutcomeKind.CAPTURED
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)], cfg)

    def test_terminal_spawn_sets_outcome(self):
        # A crowded 6x6 arena: some pursuer spawns within capture radius.
        cfg = ArenaConfig(half_width=3.0, half_height=3.0,
                          spawn_half_extent=0.5, n_pursuers=20,
                          capture_radius=2.9, r_p=3.0)
        w = init_world(cfg, 0)
        assert w.outcomes == [OutcomeKind.CAPTURED]
        stepper = EpisodeStepper(w, cfg, SensingConfig(n_s=8))
        with pytest.raises(RuntimeError):
            step_world(w, [(0.0, 0.0)], cfg)
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
                w = step_world(w, [tuple(a)], cfg)
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

    @pytest.mark.parametrize("seed", range(5))
    def test_termination_trichotomy_and_containment(self, seed):
        cfg = small_arena(t_max=20.0, n_pursuers=6)
        w = init_world(cfg, seed)
        rng = np.random.default_rng(seed)
        (outcome,) = check_outcome(w, cfg)
        steps = 0
        while outcome is None:
            w = step_world(w, [tuple(rng.uniform(-15, 15, 2))], cfg)
            (outcome,) = w.outcomes
            steps += 1
            for x, y in w.pursuers.xy[0].tolist():
                assert abs(x) <= cfg.half_width + 1e-9
                assert abs(y) <= cfg.half_height + 1e-9
            assert steps <= max_steps(cfg)
        assert outcome in (OutcomeKind.ESCAPED, OutcomeKind.CAPTURED,
                           OutcomeKind.TIMEOUT)


class TestObjectiveValue:
    def test_no_detections_max_boundary(self):
        cfg = small_arena()
        # d_b = 100 at the center; r_b_norm = 100 -> 1.0
        assert abs(objective_value((0.0, 0.0), [], cfg, 100.0) - 1.0) < TOL

    def test_at_boundary_zero(self):
        cfg = small_arena()
        assert abs(objective_value((100.0, 0.0), [], cfg, 100.0)) < TOL

    def test_single_far_detection(self):
        cfg = small_arena()
        # d_b = 50 = r_b_norm/2
        assert abs(objective_value((50.0, 0.0), [cfg.r_e], cfg, 100.0)
                   - 0.5) < TOL

    def test_pursuer_term_is_a_left_fold(self, compensated_sum):
        # Three terms whose left fold and compensated sum differ; d_b = 0.
        cfg = small_arena()
        d = math.nextafter(cfg.r_e, 0.0)
        t0, t1, t2 = ((cfg.r_e - x) / (3 * cfg.r_e) for x in (0.0, d, d))
        assert objective_value((100.0, 0.0), [0.0, d, d], cfg, 100.0) == \
            t0 + t1 + t2


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
