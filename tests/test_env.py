import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import (ArenaConfig, EpisodeOutcome, EvaderState, OutcomeKind,
                     PursuerMode, PursuerState, check_outcome, init_world,
                     max_steps, nearest_wall, nearest_wall_distance,
                     objective_value, step_evader, step_pursuer, step_world)

TOL = 1e-12


def small_arena(**kw) -> ArenaConfig:
    base = dict(half_width=100.0, half_height=100.0, spawn_half_extent=10.0,
                n_pursuers=5, t_max=50.0)
    base.update(kw)
    return ArenaConfig(**base)


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


class TestInitWorld:
    def test_same_seed_bit_identical(self):
        cfg = small_arena(seed=42)
        a, b = init_world(cfg), init_world(cfg)
        assert a.evader == b.evader
        assert a.pursuers == b.pursuers
        assert a.t == b.t == 0.0
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(25))
    def test_pursuers_outside_spawn_region(self, seed):
        cfg = small_arena(seed=seed, n_pursuers=20)
        w = init_world(cfg)
        for p in w.pursuers:
            assert not (abs(p.x) <= cfg.spawn_half_extent
                        and abs(p.y) <= cfg.spawn_half_extent)
            assert abs(p.x) <= cfg.half_width and abs(p.y) <= cfg.half_height
            assert cfg.v_p_min <= p.speed <= cfg.v_p_max
            assert p.mode is PursuerMode.PATROL

    @pytest.mark.parametrize("seed", range(10))
    def test_evader_spawn(self, seed):
        cfg = small_arena(seed=seed)
        w = init_world(cfg)
        assert abs(w.evader.x) <= cfg.spawn_half_extent
        assert abs(w.evader.y) <= cfg.spawn_half_extent
        assert w.evader.vx == 0.0 and w.evader.vy == 0.0

    def test_pursuer_count(self):
        w = init_world(small_arena(n_pursuers=7))
        assert len(w.pursuers) == 7


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
        before = EvaderState(3.0, -4.0, heading=1.2)
        s = step_evader(before, (0.0, 0.0), cfg)
        assert s.x == before.x and s.y == before.y
        assert s.heading == before.heading

    def test_heading_follows_velocity(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (0.0, 5.0), cfg)
        assert abs(s.heading - math.pi / 2) < TOL

    @given(vx=st.floats(-50, 50), vy=st.floats(-50, 50))
    @settings(deadline=None, max_examples=50)
    def test_speed_bound(self, vx, vy):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (vx, vy), cfg)
        assert s.speed <= cfg.v_e_max + 1e-9

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        # A NaN position would leave the arena test false: scored ESCAPED.
        cfg = small_arena()
        with pytest.raises(ValueError, match="not finite"):
            step_evader(EvaderState(0.0, 0.0), action, cfg)
        with pytest.raises(ValueError, match="not finite"):
            step_world(init_world(cfg), action, cfg)

    def test_huge_finite_action_clipped(self):
        cfg = small_arena()
        s = step_evader(EvaderState(0.0, 0.0), (1e308, 1e308), cfg)
        assert abs(s.speed - cfg.v_e_max) < 1e-9
        assert abs(s.vx - s.vy) < TOL


class TestStepPursuer:
    def test_patrol_straight(self):
        cfg = small_arena()
        p = PursuerState(0.0, 0.0, speed=5.0, heading=0.0)
        # evader out of sensor range
        p2 = step_pursuer(p, (50.0, 50.0), cfg)
        assert abs(p2.x - 0.5) < TOL and abs(p2.y) < TOL
        assert p2.mode is PursuerMode.PATROL
        assert p2.speed == 5.0

    def test_specular_reflection_vertical_wall(self):
        cfg = small_arena()
        p = PursuerState(99.9, 0.0, speed=5.0, heading=math.radians(30.0))
        p2 = step_pursuer(p, (-50.0, -50.0), cfg)
        assert abs(math.degrees(p2.heading) - 150.0) < 1e-9
        assert p2.speed == 5.0

    def test_reflection_preserves_speed_and_containment(self):
        cfg = small_arena()
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-cfg.half_width, cfg.half_width)
            y = rng.uniform(-cfg.half_height, cfg.half_height)
            p = PursuerState(x, y, speed=rng.uniform(5, 10),
                             heading=rng.uniform(-math.pi, math.pi))
            p2 = step_pursuer(p, (0.0, 0.0), cfg)
            assert abs(p2.x) <= cfg.half_width + 1e-9
            assert abs(p2.y) <= cfg.half_height + 1e-9
            assert p2.speed == p.speed or p2.mode is PursuerMode.CHASE

    def test_chase_on_detection(self):
        cfg = small_arena()
        p = PursuerState(0.0, 0.0, speed=5.0, heading=2.0)
        p2 = step_pursuer(p, (cfg.r_p - 1e-6, 0.0), cfg)
        assert p2.mode is PursuerMode.CHASE
        assert p2.speed == cfg.v_p_max
        assert abs(p2.heading) < 1e-6  # bearing to evader

    def test_no_chase_beyond_range(self):
        cfg = small_arena()
        p = PursuerState(0.0, 0.0, speed=5.0, heading=0.0)
        p2 = step_pursuer(p, (cfg.r_p + 1e-3, 0.0), cfg)
        assert p2.mode is PursuerMode.PATROL
        assert abs(p2.x - 0.5) < TOL

    def test_patrol_speed_restored_after_chase(self):
        cfg = small_arena()
        p = PursuerState(0.0, 0.0, speed=6.0, heading=0.5)
        chased = step_pursuer(p, (1.0, 0.0), cfg)
        assert chased.speed == cfg.v_p_max
        released = step_pursuer(chased, (80.0, 80.0), cfg)
        assert released.mode is PursuerMode.PATROL
        assert released.speed == 6.0
        assert released.heading == chased.heading


class TestStepWorld:
    def test_escape(self):
        cfg = small_arena(n_pursuers=0)
        w = init_world(cfg)
        w.evader = EvaderState(99.9, 0.0)
        w2, outcome = step_world(w, (15.0, 0.0), cfg)
        assert outcome is not None and outcome.kind is OutcomeKind.ESCAPED

    def test_capture(self):
        cfg = small_arena(n_pursuers=1)
        w = init_world(cfg)
        w.evader = EvaderState(0.0, 0.0)
        # chasing pursuer closes 1.0 per step: 2.9 -> 1.9 <= capture radius
        w.pursuers[0] = PursuerState(2.9, 0.0, 5.0, math.pi)
        _, outcome = step_world(w, (0.0, 0.0), cfg)
        assert outcome is not None and outcome.kind is OutcomeKind.CAPTURED

    def test_timeout_at_budget(self):
        cfg = small_arena(n_pursuers=0, t_max=1.0, dt=0.1)
        w = init_world(cfg)
        w.evader = EvaderState(0.0, 0.0)
        outcome = None
        steps = 0
        while outcome is None:
            w, outcome = step_world(w, (0.0, 0.0), cfg)
            steps += 1
        assert outcome.kind is OutcomeKind.TIMEOUT
        assert steps == max_steps(cfg) == 10

    def test_step_terminal_world_raises(self):
        cfg = small_arena(n_pursuers=0)
        w = init_world(cfg)
        w.evader = EvaderState(200.0, 0.0)
        with pytest.raises(RuntimeError):
            step_world(w, (0.0, 0.0), cfg)

    def test_determinism_full_episode(self):
        cfg = small_arena(seed=7, n_pursuers=8)
        actions = np.random.default_rng(0).uniform(-15, 15, size=(300, 2))

        def run():
            w = init_world(cfg)
            trace = []
            outcome = None
            for a in actions:
                w, outcome = step_world(w, tuple(a), cfg)
                trace.append((w.evader.x, w.evader.y,
                              tuple((p.x, p.y, p.speed, p.heading) for p in w.pursuers)))
                if outcome is not None:
                    break
            return trace, outcome

        t1, o1 = run()
        t2, o2 = run()
        assert t1 == t2
        assert o1 == o2

    @pytest.mark.parametrize("seed", range(5))
    def test_termination_trichotomy_and_containment(self, seed):
        cfg = small_arena(seed=seed, t_max=20.0, n_pursuers=6)
        w = init_world(cfg)
        rng = np.random.default_rng(seed)
        outcome = check_outcome(w, cfg)
        steps = 0
        while outcome is None:
            w, outcome = step_world(w, tuple(rng.uniform(-15, 15, 2)), cfg)
            steps += 1
            for p in w.pursuers:
                assert abs(p.x) <= cfg.half_width + 1e-9
                assert abs(p.y) <= cfg.half_height + 1e-9
            assert steps <= max_steps(cfg)
        assert outcome.kind in (OutcomeKind.ESCAPED, OutcomeKind.CAPTURED,
                                OutcomeKind.TIMEOUT)


class TestObjectiveValue:
    def test_no_detections_max_boundary(self):
        cfg = small_arena()
        w = init_world(replace(cfg, n_pursuers=0))
        w.evader = EvaderState(0.0, 0.0)
        # d_b = 100 at the center; r_b_norm = 100 -> 1.0
        assert abs(objective_value(w, [], cfg, 100.0) - 1.0) < TOL

    def test_at_boundary_zero(self):
        cfg = small_arena()
        w = init_world(replace(cfg, n_pursuers=0))
        w.evader = EvaderState(100.0, 0.0)
        assert abs(objective_value(w, [], cfg, 100.0)) < TOL

    def test_single_far_detection(self):
        cfg = small_arena()
        w = init_world(replace(cfg, n_pursuers=0))
        w.evader = EvaderState(50.0, 0.0)  # d_b = 50 = r_b_norm/2
        assert abs(objective_value(w, [cfg.r_e], cfg, 100.0) - 0.5) < TOL


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
        assert abs(nearest_wall_distance((0.0, 0.0), cfg) - 100.0) < TOL
        assert abs(nearest_wall_distance((90.0, 0.0), cfg) - 10.0) < TOL
        assert abs(nearest_wall_distance((99.9, 99.9), cfg) - 0.1) < 1e-9
