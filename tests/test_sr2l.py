import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import (ArenaConfig, Pursuers, WorldState, init_world,
                     max_steps, step_evader)
from cep.rewards import RewardState, transition_reward
from cep.sensing import SensingConfig, sense
from cep.sr2l import (Branch, EpisodeStepper, predict_next_state, reward_gap,
                      scaffold_select)

SENSING = SensingConfig(n_s=36, r_b_norm=100.0)


def arena(n_pursuers: int) -> ArenaConfig:
    # A small arena so that most worlds have pursuers within sensor range.
    # With t_max = 12.1 the last step lands one ulp past it (121 * 0.1).
    return ArenaConfig(half_width=25.0, half_height=25.0, spawn_half_extent=5.0,
                       n_pursuers=n_pursuers, t_max=12.1)


def reference_estimate(w: WorldState, action, cfg: ArenaConfig,
                       reward_state: RewardState, sign: float) -> float:
    """The estimate through the full pipeline: extrapolate the world, sense
    it, and score the frame on a copy of the reward state."""
    evader = step_evader(w.evaders[0], action, cfg)
    p = w.pursuers
    xy = [(x + speed * ux * cfg.dt, y + speed * uy * cfg.dt)
          for (x, y), speed, (ux, uy) in zip(p.xy[0].tolist(),
                                             p.speed[0].tolist(),
                                             p.unit[0].tolist())]
    pursuers = Pursuers(np.array(xy, dtype=float).reshape(p.xy.shape),
                        p.speed, p.unit, p.patrol_speed, p.chasing)
    n = w.step_count + 1
    w_est = WorldState([evader], pursuers, t=n * cfg.dt, step_count=n)
    (frame,) = sense(w_est, cfg)
    _, r = transition_reward(frame.detections, frame.d_b, frame.t_f,
                             reward_state.copy(), cfg, sign)
    return r


def snapshot(w: WorldState, rs: RewardState):
    (e,) = w.evaders
    return ((e.x, e.y, e.vx, e.vy),
            [a.tolist() for a in (w.pursuers.xy, w.pursuers.speed,
                                  w.pursuers.unit, w.pursuers.patrol_speed,
                                  w.pursuers.chasing)],
            w.t, w.step_count, dict(rs.history), rs.d_b_prev)


@st.composite
def scenes(draw):
    """A stepper after a few planner steps (so the reward history is
    populated), optionally moved to the last step before ``t_max``."""
    cfg = arena(draw(st.integers(0, 30)))
    stepper = EpisodeStepper(init_world(cfg, draw(st.integers(0, 2**16))),
                             cfg, SENSING, None)
    (outcome,) = stepper.world.outcomes
    for _ in range(draw(st.integers(0, 4))):
        if outcome is not None:
            break
        (outcome,), _, _ = stepper.step_action(stepper.planner.act(stepper))
    if draw(st.booleans()):
        stepper.world.step_count = max_steps(cfg) - 1
        stepper.world.t = stepper.world.step_count * cfg.dt
    return stepper


actions = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


class TestPredictNextState:
    @given(stepper=scenes(), action=actions, sign=st.sampled_from([-1.0, 1.0]))
    @settings(deadline=None, max_examples=150)
    def test_equals_full_pipeline(self, stepper, action, sign):
        w, cfg, rs = stepper.world, stepper.arena, stepper.reward_states[0]
        expected = reference_estimate(w, action, cfg, rs, sign)
        assert predict_next_state(w, action, cfg, rs, sign) == expected

    @given(stepper=scenes(), action=actions)
    @settings(deadline=None, max_examples=50)
    def test_touches_neither_world_nor_reward_state(self, stepper, action):
        w, rs = stepper.world, stepper.reward_states[0]
        before = snapshot(w, rs)
        predict_next_state(w, action, stepper.arena, rs)
        assert snapshot(w, rs) == before

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        cfg = arena(5)
        w = init_world(cfg, 0)
        with pytest.raises(ValueError, match="not finite"):
            predict_next_state(w, action, cfg, RewardState())


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
