import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import ArenaConfig
from cep.rewards import (compose_reward, pursuer_weight, reward_boundary,
                         reward_pursuers, transition_reward)
from cep.sensing import Detection, SenseFrame

TOL = 1e-12


@pytest.fixture
def cfg():
    return ArenaConfig(half_width=100.0, half_height=100.0,
                       spawn_half_extent=10.0, n_pursuers=5,
                       v_e_max=15.0, dt=0.1, t_max=50.0)


def det(pid, distance, speed=0.0, theta=0.0):
    return Detection(pid, distance, 0.0, speed, theta)


def frame(detections, d_b, t_f):
    return SenseFrame(detections, d_b, (1.0, 0.0), t_f)


class TestPursuerWeight:
    def test_edge_of_range(self):
        assert pursuer_weight(15.0, 15.0) == 0.0

    def test_contact(self):
        assert pursuer_weight(0.0, 15.0) == 1.0

    def test_midpoint(self):
        assert pursuer_weight(7.5, 15.0) == 0.5


class TestRewardPursuers:
    def test_empty(self, cfg):
        r_d, sum_w, m = reward_pursuers([det(0, 5.0)], [], cfg)
        assert r_d == 0.0 and sum_w == 0.0 and m == 0

    def test_perfect_escape_cancels(self, cfg):
        # stationary pursuer, evader receding at v_e_max
        d_prev = cfg.r_e / 2
        d_now = d_prev + cfg.v_e_max * cfg.dt
        r_d, _, _ = reward_pursuers([det(0, d_prev)], [det(0, d_now)], cfg)
        assert abs(r_d) < TOL

    def test_stationary_evader(self, cfg):
        d = cfg.r_e / 2
        r_d, sum_w, m = reward_pursuers([det(0, d)], [det(0, d)], cfg)
        assert abs(r_d - 0.75) < TOL  # W=0.5 times v_e_max*dt=1.5
        assert abs(sum_w - 0.5) < TOL and m == 1

    def test_first_detection_zero_delta(self, cfg):
        # Pursuer 0 was not among the previous detections; pursuer 1 was.
        r_d, _, _ = reward_pursuers([det(1, 3.0)], [det(0, 3.0)], cfg)
        w = pursuer_weight(3.0, cfg.r_e)
        assert abs(r_d - w * cfg.v_e_max * cfg.dt) < TOL

    def test_history_updated_and_used(self, cfg):
        # Three frames in a row: each step's previous distance is the one
        # the step before it saw.
        frames = [[det(0, 10.0)], [det(0, 9.0)], [det(0, 9.5), det(2, 4.0)]]
        (r_1, _, _), (r_2, _, _) = (reward_pursuers(a, b, cfg)
                                    for a, b in zip(frames, frames[1:]))
        # delta = -1, V_rel*dt = 1.5, W = 1 - 9/15 = 0.4
        assert abs(r_1 - 0.4 * (1.5 + 1.0)) < TOL
        # pursuer 0: delta = +0.5; pursuer 2 first seen: zero delta
        expected = (pursuer_weight(9.5, cfg.r_e) * (1.5 - 0.5)
                    + pursuer_weight(4.0, cfg.r_e) * 1.5)
        assert abs(r_2 - expected) < TOL

    def test_disappear_reappear_resets_delta(self, cfg):
        r_d, _, _ = reward_pursuers([det(0, 10.0)], [], cfg)
        assert r_d == 0.0
        r_d, _, _ = reward_pursuers([], [det(0, 4.0)], cfg)
        w = pursuer_weight(4.0, cfg.r_e)
        assert abs(r_d - w * 1.5) < TOL

    def test_theta_enters_relative_speed(self, cfg):
        r_d, _, _ = reward_pursuers([det(0, 10.0)],
                                    [det(0, 10.0, speed=10.0, theta=0.0)], cfg)
        # V_rel = 15 - 10*cos(0) = 5
        w = pursuer_weight(10.0, cfg.r_e)
        assert abs(r_d - w * 0.5) < TOL
        r_d2, _, _ = reward_pursuers(
            [det(0, 10.0)], [det(0, 10.0, speed=10.0, theta=math.pi)], cfg)
        assert abs(r_d2 - w * 2.5) < TOL

    def test_verbatim_r_d_increases_as_pursuer_closes(self, cfg):
        # the raw component grows as distance shrinks (weight and delta both
        # rise); the signed reward's negation is what penalizes closing
        # pursuers
        values = [reward_pursuers([det(0, 10.0)], [det(0, d_now)], cfg)[0]
                  for d_now in (10.0, 8.0, 6.0)]
        assert values[0] < values[1] < values[2]


class TestRewardBoundary:
    def test_perfect_approach_cancels(self, cfg):
        r_b = reward_boundary(50.0, 50.0 - 1.5, cfg)
        assert abs(r_b) < TOL

    def test_stationary(self, cfg):
        assert abs(reward_boundary(50.0, 50.0, cfg) - 1.5) < TOL

    def test_retreating(self, cfg):
        assert abs(reward_boundary(50.0, 51.5, cfg) - 3.0) < TOL


class TestComposeReward:
    def test_no_detections(self):
        assert abs(compose_reward(1.2, 0.0, 0.0, 0, 0.5) - 0.6) < TOL

    def test_spec_arithmetic(self):
        r = compose_reward(1.0, 0.75, 0.5, 1, 0.5)
        assert abs(r - 0.5) < TOL

    def test_timeout_annihilation(self):
        assert compose_reward(123.0, -45.0, 3.0, 7, 0.0) == 0.0

    @given(rb1=st.floats(-2, 2), rb2=st.floats(-2, 2),
           rd1=st.floats(-2, 2), rd2=st.floats(-2, 2),
           sum_w=st.floats(0, 3), m=st.integers(0, 10),
           t_f=st.floats(0, 0.5))
    @settings(deadline=None, max_examples=100)
    def test_linearity_by_superposition(self, rb1, rb2, rd1, rd2, sum_w, m, t_f):
        a = compose_reward(rb1, rd1, sum_w, m, t_f)
        b = compose_reward(rb2, rd2, sum_w, m, t_f)
        ab = compose_reward(rb1 + rb2, rd1 + rd2, sum_w, m, t_f)
        assert abs((a + b) - ab) < 1e-9


class TestTransitionReward:
    def test_no_detections_at_rest(self, cfg):
        bd = transition_reward(frame([], 40.0, 0.3), frame([], 40.0, 0.5), cfg)
        assert abs(bd.r - 0.5 * cfg.v_e_max * cfg.dt) < TOL
        assert bd.t_f == 0.5
        assert bd.reward == -bd.r

    def test_breakdown_recomposes(self, cfg):
        before = frame([det(0, 11.0)], 40.0, 0.5)
        after = frame([det(0, 10.0), det(1, 5.0)], 39.0, 0.4)
        bd = transition_reward(before, after, cfg)
        expect = compose_reward(bd.r_b, bd.r_d, bd.sum_w, bd.m, bd.t_f)
        assert abs(bd.r - expect) < TOL
        assert (bd.r_d, bd.sum_w, bd.m) == reward_pursuers(
            before.detections, after.detections, cfg)
        assert bd.r_b == reward_boundary(40.0, 39.0, cfg)
