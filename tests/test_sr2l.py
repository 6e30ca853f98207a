import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import (ArenaConfig, EvaderState, Pursuers, WorldState,
                     init_world, max_steps, step_evader)
from cep.rewards import pursuer_weight, transition_reward
from cep.sensing import SenseFrame, SensingConfig, sense
from cep.sr2l import (Branch, EpisodeStepper, predict_next_state, reward_gap,
                      scaffold_select)

SENSING = SensingConfig(n_s=36, r_b_norm=100.0)


def arena(n_pursuers: int) -> ArenaConfig:
    # A small arena so that most worlds have pursuers within sensor range.
    # With t_max = 12.1 the last step lands one ulp past it (121 * 0.1).
    return ArenaConfig(half_width=25.0, half_height=25.0, spawn_half_extent=5.0,
                       n_pursuers=n_pursuers, t_max=12.1)


def reference_estimate(w: WorldState, frame: SenseFrame, action,
                       cfg: ArenaConfig) -> float:
    """The estimate through the full pipeline: extrapolate the world, sense
    it, and score the step from ``frame`` to the sensed frame."""
    evader = step_evader(w.evaders[0], action, cfg)
    p = w.pursuers
    xy = [(x + speed * ux * cfg.dt, y + speed * uy * cfg.dt)
          for (x, y), speed, (ux, uy) in zip(p.xy[0].tolist(),
                                             p.speed[0].tolist(),
                                             p.unit[0].tolist())]
    pursuers = Pursuers(np.array(xy, dtype=float).reshape(p.xy.shape),
                        p.speed, p.unit, p.patrol_speed)
    n = w.step_count + 1
    w_est = WorldState([evader], pursuers, t=n * cfg.dt, step_count=n)
    (after,) = sense(w_est, cfg)
    return -transition_reward(frame, after, cfg).r


def snapshot(w: WorldState, frame: SenseFrame):
    (e,) = w.evaders
    return ((e.x, e.y, e.vx, e.vy),
            [a.tolist() for a in (w.pursuers.xy, w.pursuers.speed,
                                  w.pursuers.unit, w.pursuers.patrol_speed)],
            w.t, w.step_count, list(frame.detections), frame.d_b,
            frame.boundary_dir, frame.t_f)


@st.composite
def scenes(draw):
    """A stepper after a few planner steps (so the earlier frame holds
    detections), optionally moved to the last step before ``t_max``."""
    cfg = arena(draw(st.integers(0, 30)))
    stepper = EpisodeStepper(init_world(cfg, draw(st.integers(0, 2**16))),
                             cfg, SENSING, None)
    (outcome,) = stepper.world.outcomes
    for _ in range(draw(st.integers(0, 4))):
        if outcome is not None:
            break
        (outcome,), _ = stepper.step_action(stepper.planner.act(stepper))
    if draw(st.booleans()):
        stepper.world.step_count = max_steps(cfg) - 1
        stepper.world.t = stepper.world.step_count * cfg.dt
    return stepper


actions = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


class TestPredictNextState:
    @given(stepper=scenes(), action=actions)
    @settings(deadline=None, max_examples=150)
    def test_equals_full_pipeline(self, stepper, action):
        w, cfg, (frame,) = stepper.world, stepper.arena, stepper.reward_frames
        expected = reference_estimate(w, frame, action, cfg)
        assert predict_next_state(w, frame, action, cfg) == expected

    @given(stepper=scenes(), action=actions)
    @settings(deadline=None, max_examples=50)
    def test_touches_neither_world_nor_reward_state(self, stepper, action):
        # The reward's earlier state is the frame handed in.
        w, (frame,) = stepper.world, stepper.reward_frames
        before = snapshot(w, frame)
        predict_next_state(w, frame, action, stepper.arena)
        assert snapshot(w, frame) == before

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        cfg = arena(5)
        w = init_world(cfg, 0)
        (frame,) = sense(w, cfg)
        with pytest.raises(ValueError, match="not finite"):
            predict_next_state(w, frame, action, cfg)


class TestResetRule:
    """At an episode's first step no pursuer has a previous distance: one
    seen at spawn gets a zero distance change, in the realized reward and in
    the forward model's estimate; from the second step on, its change is
    the true one."""

    def r_d(self, cfg, det, d_prev):
        w_i = pursuer_weight(det.distance, cfg.r_e)
        v_rel_max = cfg.v_e_max - det.speed * math.cos(det.theta)
        return w_i * (v_rel_max * cfg.dt - (det.distance - d_prev))

    def test_pursuer_seen_at_spawn(self):
        # Pursuer 0 starts 12 m east of the evader, inside r_e = 15 but
        # outside r_p = 10, and patrols north: no chase, no wall, so the
        # forward model's extrapolation is the realized step.  Pursuer 1 is
        # out of range.
        cfg = ArenaConfig()
        pursuers = Pursuers.from_rows([(12.0, 0.0, 5.0, math.pi / 2),
                                       (-60.0, 40.0, 5.0, 0.0)])
        stepper = EpisodeStepper(WorldState([EvaderState(0.0, 0.0)],
                                            pursuers), cfg, SENSING, None)
        (spawn,) = stepper.frames
        (d_0,) = spawn.detections
        assert d_0.pursuer_id == 0 and d_0.distance == 12.0
        (before,) = stepper.reward_frames
        assert before.detections == [] and before.d_b == spawn.d_b
        still = (0.0, 0.0)
        predicted = predict_next_state(stepper.world, before, still, cfg)

        (outcome,), (first,) = stepper.step_action([still])
        assert outcome is None
        (d_1,) = stepper.frames[0].detections
        assert d_1.distance > d_0.distance
        assert first.r_d == self.r_d(cfg, d_1, d_1.distance)
        assert first.r_d != self.r_d(cfg, d_1, d_0.distance)
        assert first.r_b == cfg.v_e_max * cfg.dt
        assert predicted == first.reward

        (after_first,) = stepper.reward_frames
        assert after_first is stepper.frames[0]
        predicted = predict_next_state(stepper.world, after_first, still, cfg)
        (outcome,), (second,) = stepper.step_action([still])
        assert outcome is None
        (d_2,) = stepper.frames[0].detections
        assert second.r_d == self.r_d(cfg, d_2, d_1.distance)
        assert second.r_d != self.r_d(cfg, d_2, d_2.distance)
        assert predicted == second.reward


class TestRewardGap:
    def test_zero_denominator(self):
        eps = 1e-6
        assert reward_gap(-eps, -eps, eps) == 0.0
        assert reward_gap(1.0, -eps, eps) == math.inf
        assert reward_gap(-1.0, -eps, eps) == -math.inf

    def test_percentage(self):
        assert reward_gap(1.5, 1.0, 1e-6) == pytest.approx(50.0 / (1.0 + 1e-6))


class TestScaffoldSelect:
    def test_open_threshold_always_actor(self):
        # beta = 100 forces the actor branch even for an unbounded gap.
        assert scaffold_select(-5.0, 1.0, -math.inf, 100.0) == (Branch.ACTOR,
                                                                -5.0)

    def test_branch_boundary(self):
        beta = 20.0
        r_r, r_p = -1.2, -1.0
        assert scaffold_select(r_r, r_p, -beta, beta) == (Branch.ACTOR, r_r)
        below = float(np.nextafter(-beta, -math.inf))
        branch, stored = scaffold_select(r_r, r_p, below, beta)
        assert branch is Branch.PLANNER
        assert stored == r_r - abs(r_p - r_r)


class TestDropEnded:
    def test_scans_follow_the_kept_worlds(self):
        # Scans read before a world ends are rebuilt for the worlds kept.
        cfg = ArenaConfig(half_width=20.0, half_height=20.0,
                          spawn_half_extent=0.5, n_pursuers=20,
                          capture_radius=2.9, r_p=3.0)
        worlds = [init_world(cfg, seed) for seed in range(20)]
        ended = next(w for w in worlds if w.outcomes[0] is not None)
        live = next(w for w in worlds if w.outcomes[0] is None)
        stepper = EpisodeStepper(WorldState.stack([live, ended, live]), cfg,
                                 SENSING, None)
        assert stepper.observations.shape == (3, SENSING.n_s)
        assert stepper.drop_ended() == [(1, ended.outcomes[0])]
        alone = EpisodeStepper(live, cfg, SENSING, None)
        assert np.array_equal(stepper.lidars, np.repeat(alone.lidars, 2, 0))
        assert np.array_equal(stepper.observations,
                              np.repeat(alone.observations, 2, 0))
