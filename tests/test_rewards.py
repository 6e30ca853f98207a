import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import ArenaConfig
from cep.rewards import (RewardState, compose_reward, pursuer_weight,
                         reward_boundary, reward_pursuers, transition_reward)
from cep.sensing import Detection

TOL = 1e-12


@pytest.fixture
def cfg():
    return ArenaConfig(half_width=100.0, half_height=100.0,
                       spawn_half_extent=10.0, n_pursuers=5,
                       v_e_max=15.0, dt=0.1, t_max=50.0)


def det(pid, distance, speed=0.0, theta=0.0):
    return Detection(pid, distance, 0.0, speed, theta)


class TestPursuerWeight:
    def test_edge_of_range(self):
        assert pursuer_weight(15.0, 15.0) == 0.0

    def test_contact(self):
        assert pursuer_weight(0.0, 15.0) == 1.0

    def test_midpoint(self):
        assert pursuer_weight(7.5, 15.0) == 0.5


class TestRewardPursuers:
    def test_empty(self, cfg):
        hist = {}
        r_d, sum_w, m = reward_pursuers([], hist, cfg)
        assert r_d == 0.0 and sum_w == 0.0 and m == 0

    def test_perfect_escape_cancels(self, cfg):
        # stationary pursuer, evader receding at v_e_max
        d_prev = cfg.r_e / 2
        d_now = d_prev + cfg.v_e_max * cfg.dt
        hist = {0: d_prev}
        r_d, _, _ = reward_pursuers([det(0, d_now)], hist, cfg)
        assert abs(r_d) < TOL

    def test_stationary_evader(self, cfg):
        d = cfg.r_e / 2
        hist = {0: d}
        r_d, sum_w, m = reward_pursuers([det(0, d)], hist, cfg)
        assert abs(r_d - 0.75) < TOL  # W=0.5 times v_e_max*dt=1.5
        assert abs(sum_w - 0.5) < TOL and m == 1

    def test_first_detection_zero_delta(self, cfg):
        r_d, _, _ = reward_pursuers([det(0, 3.0)], {}, cfg)
        w = pursuer_weight(3.0, cfg.r_e)
        assert abs(r_d - w * cfg.v_e_max * cfg.dt) < TOL

    def test_history_updated_and_used(self, cfg):
        hist = {}
        reward_pursuers([det(0, 10.0)], hist, cfg)
        assert hist == {0: 10.0}
        r_d, _, _ = reward_pursuers([det(0, 9.0)], hist, cfg)
        # delta = -1, V_rel*dt = 1.5, W = 1 - 9/15 = 0.4
        assert abs(r_d - 0.4 * (1.5 + 1.0)) < TOL
        assert hist == {0: 9.0}

    def test_disappear_reappear_resets_delta(self, cfg):
        hist = {}
        reward_pursuers([det(0, 10.0)], hist, cfg)
        reward_pursuers([], hist, cfg)
        assert hist == {}
        r_d, _, _ = reward_pursuers([det(0, 4.0)], hist, cfg)
        w = pursuer_weight(4.0, cfg.r_e)
        assert abs(r_d - w * 1.5) < TOL

    def test_theta_enters_relative_speed(self, cfg):
        hist = {0: 10.0}
        r_d, _, _ = reward_pursuers([det(0, 10.0, speed=10.0, theta=0.0)],
                                    hist, cfg)
        # V_rel = 15 - 10*cos(0) = 5
        w = pursuer_weight(10.0, cfg.r_e)
        assert abs(r_d - w * 0.5) < TOL
        hist = {0: 10.0}
        r_d2, _, _ = reward_pursuers([det(0, 10.0, speed=10.0, theta=math.pi)],
                                     hist, cfg)
        assert abs(r_d2 - w * 2.5) < TOL

    def test_verbatim_r_d_increases_as_pursuer_closes(self, cfg):
        # the raw component grows as distance shrinks (weight and delta both
        # rise); the harness's sign flip is what penalizes closing pursuers
        values = []
        for d_now in (10.0, 8.0, 6.0):
            hist = {0: 10.0}
            r_d, _, _ = reward_pursuers([det(0, d_now)], hist, cfg)
            values.append(r_d)
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
        state = RewardState(d_b_prev=40.0)
        bd, signed = transition_reward([], 40.0, 0.5, state, cfg, sign=-1.0)
        assert abs(bd.r - 0.5 * cfg.v_e_max * cfg.dt) < TOL
        assert abs(signed + bd.r) < TOL

    def test_breakdown_recomposes(self, cfg):
        state = RewardState(d_b_prev=40.0)
        dets = [det(0, 10.0), det(1, 5.0)]
        bd, _ = transition_reward(dets, 39.0, 0.4, state, cfg)
        expect = compose_reward(bd.r_b, bd.r_d, bd.sum_w, bd.m, bd.t_f)
        assert abs(bd.r - expect) < TOL

    def test_copy_isolation(self, cfg):
        state = RewardState(history={0: 10.0}, d_b_prev=40.0)
        clone = state.copy()
        transition_reward([det(0, 8.0)], 39.0, 0.4, clone, cfg)
        assert state.history == {0: 10.0}
        assert state.d_b_prev == 40.0
