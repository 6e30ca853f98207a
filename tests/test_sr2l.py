import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep import sr2l
from cep.env import (ArenaConfig, EvaderState, Pursuers, WorldState,
                     init_world, max_steps, step_evader)
from cep.neural import PolicyBundle, TrainConfig, forward_actor
from cep.pfm import PfmGains, PfmPolicy
from cep.rewards import transition_reward
from cep.sensing import SenseFrame, SensingConfig, cast_rays, observe, sense
from cep.sr2l import (EpisodeStepper, ScaffoldConfig, arbitrate,
                      predict_next_state, to_velocity)

SENSING = SensingConfig(n_s=36, r_b_norm=100.0)
PLANNER = PfmPolicy(PfmGains())
NETS = PolicyBundle.create(SENSING.n_s, TrainConfig(hidden=(16,)),
                           np.random.default_rng(0))


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
    w_est = WorldState(cfg, [evader], pursuers, step_count=w.step_count + 1)
    (after,) = sense(w_est)
    return -transition_reward(frame, after, cfg).r


def snapshot(w: WorldState, frame: SenseFrame):
    (e,) = w.evaders
    return ((e.x, e.y, e.vx, e.vy),
            [a.tolist() for a in (w.pursuers.xy, w.pursuers.speed,
                                  w.pursuers.unit, w.pursuers.patrol_speed)],
            w.step_count, list(frame.detections.items()), frame.d_b,
            frame.boundary_dir, frame.t_f)


@st.composite
def scenes(draw):
    """A stepper after a few planner steps (so the earlier frame holds
    detections), optionally moved to the last step before ``t_max``."""
    cfg = arena(draw(st.integers(0, 30)))
    stepper = EpisodeStepper(init_world(cfg, draw(st.integers(0, 2**16))))
    (outcome,) = stepper.world.outcomes
    for _ in range(draw(st.integers(0, 4))):
        if outcome is not None:
            break
        stepper.step_action(PLANNER.act(stepper))
        (outcome,) = stepper.world.outcomes
    if draw(st.booleans()):
        stepper.world = replace(stepper.world, step_count=max_steps(cfg) - 1)
    return stepper


actions = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))


class TestPredictNextState:
    @given(stepper=scenes(), action=actions)
    @settings(deadline=None, max_examples=150)
    def test_equals_full_pipeline(self, stepper, action):
        w, (frame,) = stepper.world, stepper.reward_frames
        cfg = w.arena
        expected = reference_estimate(w, frame, action, cfg)
        assert predict_next_state(w, frame, action) == expected

    @given(stepper=scenes(), action=actions)
    @settings(deadline=None, max_examples=50)
    def test_touches_neither_world_nor_reward_state(self, stepper, action):
        # The reward's earlier state is the frame handed in.
        w, (frame,) = stepper.world, stepper.reward_frames
        before = snapshot(w, frame)
        predict_next_state(w, frame, action)
        assert snapshot(w, frame) == before

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (math.inf, 0.0),
                                        (-math.inf, math.inf)])
    def test_non_finite_action_raises(self, action):
        cfg = arena(5)
        w = init_world(cfg, 0)
        (frame,) = sense(w)
        with pytest.raises(ValueError, match="not finite"):
            predict_next_state(w, frame, action)


# -- oracle: the scaffold decision as the two helpers it was split into
# before it became one body in arbitrate


def reward_gap(r_r: float, r_p: float, eps: float) -> float:
    """Percentage gap between the actor's and planner's expected rewards."""
    denom = abs(r_p + eps)
    if denom == 0.0:
        if r_r == r_p:
            return 0.0
        return math.copysign(math.inf, r_r - r_p)
    return 100.0 * (r_r - r_p) / denom


def scaffold_select(r_r: float, r_p: float, d_f: float,
                    beta: float) -> tuple[bool, float]:
    """Whether the actor's action runs, and the reward the stored
    transition holds."""
    if d_f >= -beta or beta >= 100.0:
        return True, r_r
    return False, r_r - abs(r_p - r_r)


def arbitrate_with(monkeypatch, r_r: float, r_p: float,
                   scaffold: ScaffoldConfig, planner=PLANNER):
    """A fixed scene's stepper and :func:`arbitrate`'s choice on it, with the
    forward model estimating ``r_r`` for the actor's command and ``r_p`` for
    the planner's."""
    estimates = iter([r_r, r_p])
    monkeypatch.setattr(sr2l, "predict_next_state",
                        lambda *args: next(estimates))
    cfg = arena(8)
    stepper = EpisodeStepper(init_world(cfg, 4))
    return stepper, arbitrate(stepper, observe(stepper.world, SENSING)[0],
                              NETS, np.random.default_rng(0), scaffold,
                              planner)


class Refuses:
    def act(self, stepper):
        raise AssertionError("the planner was asked")


class TestArbitrate:
    @given(stepper=scenes(), beta=st.sampled_from([None, 0.0, 20.0, 100.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=150)
    def test_equals_its_parts(self, stepper, beta, seed):
        # beta None is the independent trainer.
        scaffold = None if beta is None else ScaffoldConfig(beta=beta)
        w, (frame,) = stepper.world, stepper.reward_frames
        cfg = w.arena
        rng = np.random.default_rng(seed)
        (state,) = observe(w, SENSING)
        action = forward_actor(NETS.actor, state, rng)
        command = to_velocity(action, cfg)
        reward = r_r = predict_next_state(w, frame, command)
        actor_ran = True
        if scaffold is not None:
            (a_p,) = PLANNER.act(stepper)
            r_p = predict_next_state(w, frame, a_p)
            actor_ran, reward = scaffold_select(
                r_r, r_p, reward_gap(r_r, r_p, scaffold.epsilon), beta)
            if not actor_ran:
                command, action = a_p, np.array(a_p) / cfg.v_e_max

        own = np.random.default_rng(seed)
        got = arbitrate(stepper, state, NETS, own, scaffold, PLANNER)
        assert (got[0], got[2], got[3]) == (command, reward, actor_ran)
        assert np.array_equal(got[1], action)
        # The same draws, in the same order.
        assert own.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("scaffold", [None, ScaffoldConfig(beta=100.0)],
                             ids=["iac", "beta100"])
    def test_independent_trainer_never_asks_the_planner(self, scaffold):
        cfg = arena(8)
        stepper = EpisodeStepper(init_world(cfg, 4))
        rng = np.random.default_rng(0)
        (outcome,) = stepper.world.outcomes
        while outcome is None:
            command, _, _, actor_ran = arbitrate(
                stepper, observe(stepper.world, SENSING)[0], NETS, rng,
                scaffold, Refuses())
            assert actor_ran
            stepper.step_action([command])
            (outcome,) = stepper.world.outcomes


class TestResetRule:
    """At an episode's first step no pursuer has a previous distance: one
    seen at spawn gets a zero distance change, in the realized reward and in
    the forward model's estimate; from the second step on, its change is
    the true one."""

    def r_d(self, cfg, det, d_prev):
        w_i = 1.0 - det.distance / cfg.r_e
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
        stepper = EpisodeStepper(WorldState(cfg, [EvaderState(0.0, 0.0)],
                                            pursuers))
        (spawn,) = stepper.frames
        ((pid, d_0),) = spawn.detections.items()
        assert pid == 0 and d_0.distance == 12.0
        (before,) = stepper.reward_frames
        assert before.detections == {} and before.d_b == spawn.d_b
        still = (0.0, 0.0)
        predicted = predict_next_state(stepper.world, before, still)

        (first,) = stepper.step_action([still])
        (outcome,) = stepper.world.outcomes
        assert outcome is None
        (d_1,) = stepper.frames[0].detections.values()
        assert d_1.distance > d_0.distance
        assert first.r_d == self.r_d(cfg, d_1, d_1.distance)
        assert first.r_d != self.r_d(cfg, d_1, d_0.distance)
        assert first.r_b == cfg.v_e_max * cfg.dt
        assert predicted == first.reward

        (after_first,) = stepper.reward_frames
        assert after_first is stepper.frames[0]
        predicted = predict_next_state(stepper.world, after_first, still)
        (second,) = stepper.step_action([still])
        (outcome,) = stepper.world.outcomes
        assert outcome is None
        (d_2,) = stepper.frames[0].detections.values()
        assert second.r_d == self.r_d(cfg, d_2, d_1.distance)
        assert second.r_d != self.r_d(cfg, d_2, d_2.distance)
        assert predicted == second.reward


class TestRewardGap:
    """D_f through the branch it selects, with the forward model's two
    estimates chosen."""

    EPS = 1e-6

    def test_zero_denominator(self, monkeypatch):
        # r_p = -eps zeroes the denominator: D_f is 0 for equal estimates
        # (the actor runs even at beta = 0), and an infinity of the sign of
        # r_r - r_p otherwise (the planner runs at any threshold below 100).
        r_p = -self.EPS
        for r_r, beta, actor_ran in ((r_p, 0.0, True), (1.0, 0.0, True),
                                     (r_p - 1e-9, 99.0, False)):
            _, (_, _, reward, ran) = arbitrate_with(
                monkeypatch, r_r, r_p,
                ScaffoldConfig(beta=beta, epsilon=self.EPS))
            assert ran is actor_ran
            assert reward == (r_r if actor_ran else r_r - abs(r_p - r_r))

    def test_percentage(self, monkeypatch):
        # D_f = 100 * (0.5 - 1) / (1 + eps), just above -50.
        for beta, actor_ran in ((50.0, True), (49.9999, False)):
            _, (_, _, _, ran) = arbitrate_with(
                monkeypatch, 0.5, 1.0,
                ScaffoldConfig(beta=beta, epsilon=self.EPS))
            assert ran is actor_ran


class TestScaffoldSelect:
    def test_open_threshold_always_actor(self, monkeypatch):
        # beta = 100 takes the actor's branch before the planner is asked,
        # even where D_f would be -inf.
        _, (_, _, reward, ran) = arbitrate_with(
            monkeypatch, -5.0, -1e-6, ScaffoldConfig(beta=100.0), Refuses())
        assert (ran, reward) == (True, -5.0)

    def test_branch_boundary(self, monkeypatch):
        # r_p + eps == 1 and r_r - r_p == -0.25 exactly, so D_f == -25.
        eps = 2.0 ** -20
        r_p = 1.0 - eps
        r_r = r_p - 0.25
        assert reward_gap(r_r, r_p, eps) == -25.0
        stepper, (command, action, reward, ran) = arbitrate_with(
            monkeypatch, r_r, r_p, ScaffoldConfig(beta=25.0, epsilon=eps))
        assert (ran, reward) == (True, r_r)
        assert command == to_velocity(action, stepper.world.arena)

        # D_f one ulp below -beta: the planner's action runs.
        below = float(np.nextafter(25.0, 0.0))
        stepper, (command, action, reward, ran) = arbitrate_with(
            monkeypatch, r_r, r_p, ScaffoldConfig(beta=below, epsilon=eps))
        (a_p,) = PLANNER.act(stepper)
        assert (ran, reward) == (False, r_r - abs(r_p - r_r))
        assert command == a_p
        assert np.array_equal(action,
                              np.array(a_p) / stepper.world.arena.v_e_max)


class TestDropEnded:
    def test_scans_follow_the_kept_worlds(self):
        # Once a world ends, the batch's scans and actor inputs are the
        # kept worlds' own.
        cfg = ArenaConfig(half_width=20.0, half_height=20.0,
                          spawn_half_extent=0.5, n_pursuers=20,
                          capture_radius=2.9, r_p=3.0)
        worlds = [init_world(cfg, seed) for seed in range(20)]
        ended = next(w for w in worlds if w.outcomes[0] is not None)
        live = next(w for w in worlds if w.outcomes[0] is None)
        stepper = EpisodeStepper(WorldState.stack([live, ended, live]))
        assert observe(stepper.world, SENSING).shape == (3, SENSING.n_s)
        assert stepper.drop_ended() == [(1, ended.outcomes[0])]
        assert np.array_equal(cast_rays(stepper.world, SENSING),
                              np.repeat(cast_rays(live, SENSING), 2, 0))
        assert np.array_equal(observe(stepper.world, SENSING),
                              np.repeat(observe(live, SENSING), 2, 0))
