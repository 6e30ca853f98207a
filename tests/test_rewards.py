import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import ArenaConfig
from cep.rewards import RewardBreakdown, transition_reward
from cep.sensing import Detection, SenseFrame

TOL = 1e-12
CFG = ArenaConfig(half_width=100.0, half_height=100.0, spawn_half_extent=10.0,
                  n_pursuers=5, v_e_max=15.0, dt=0.1, t_max=50.0)


@pytest.fixture
def cfg():
    return CFG


def det(pid, distance, speed=0.0, theta=0.0):
    """Pursuer ``pid``'s detection, as a ``(pid, Detection)`` entry."""
    return pid, Detection(distance, 0.0, speed, theta)


def frame(detections, d_b, t_f):
    """A frame of the ``(pid, Detection)`` entries ``detections``."""
    return SenseFrame(dict(detections), d_b, (1.0, 0.0), t_f)


def step(before, after, cfg, d_b=(40.0, 40.0), t_f=0.5) -> RewardBreakdown:
    """The reward from detections ``before`` to ``after``, with the nearest
    wall at ``d_b`` (before, after) and time factor ``t_f`` after."""
    return transition_reward(frame(before, d_b[0], t_f),
                             frame(after, d_b[1], t_f), cfg)


def weight(d_i, cfg):
    """Proximity weight of one pursuer detected at ``d_i``."""
    return step([], [det(0, d_i)], cfg).sum_w


# The reward as four composed helpers, the form transition_reward was once
# split into: the oracle its single body must equal exactly.

def pursuer_weight(d_i: float, r_e: float) -> float:
    return 1.0 - d_i / r_e


def reward_pursuers(before, after, cfg):
    previous = {pid: det.distance for pid, det in before.items()}
    r_d = 0.0
    sum_w = 0.0
    for pid, det in after.items():
        d_now = det.distance
        d_prev = previous.get(pid, d_now)
        w_i = pursuer_weight(d_now, cfg.r_e)
        v_rel_max = cfg.v_e_max - det.speed * math.cos(det.theta)
        r_d += w_i * (v_rel_max * cfg.dt - (d_now - d_prev))
        sum_w += w_i
    return r_d, sum_w, len(after)


def reward_boundary(d_b_prev, d_b_now, cfg):
    return cfg.v_e_max * cfg.dt - (d_b_prev - d_b_now)


def compose_reward(r_b, r_d, sum_w, m, t_f):
    return t_f * ((1.0 - sum_w) / (1.0 + m) * r_b + r_d)


def composed_reward(before: SenseFrame, after: SenseFrame, cfg):
    """``(r_d, r_b, sum_w, r)`` from the composed helpers."""
    r_d, sum_w, m = reward_pursuers(before.detections, after.detections, cfg)
    r_b = reward_boundary(before.d_b, after.d_b, cfg)
    return r_d, r_b, sum_w, compose_reward(r_b, r_d, sum_w, m, after.t_f)


class TestPursuerWeight:
    def test_edge_of_range(self, cfg):
        assert weight(15.0, cfg) == 0.0

    def test_contact(self, cfg):
        assert weight(0.0, cfg) == 1.0

    def test_midpoint(self, cfg):
        assert weight(7.5, cfg) == 0.5


class TestRewardPursuers:
    def test_empty(self, cfg):
        bd = step([det(0, 5.0)], [], cfg)
        assert bd.r_d == 0.0 and bd.sum_w == 0.0
        assert bd.r == 0.5 * bd.r_b  # m = 0

    def test_perfect_escape_cancels(self, cfg):
        # stationary pursuer, evader receding at v_e_max
        d_prev = cfg.r_e / 2
        d_now = d_prev + cfg.v_e_max * cfg.dt
        assert abs(step([det(0, d_prev)], [det(0, d_now)], cfg).r_d) < TOL

    def test_stationary_evader(self, cfg):
        d = cfg.r_e / 2
        bd = step([det(0, d)], [det(0, d)], cfg)
        assert abs(bd.r_d - 0.75) < TOL  # W=0.5 times v_e_max*dt=1.5
        assert abs(bd.sum_w - 0.5) < TOL
        assert abs(bd.r - 0.5 * (0.5 / 2 * bd.r_b + 0.75)) < TOL  # m = 1

    def test_first_detection_zero_delta(self, cfg):
        # Pursuer 0 was not among the previous detections; pursuer 1 was.
        r_d = step([det(1, 3.0)], [det(0, 3.0)], cfg).r_d
        w = weight(3.0, cfg)
        assert abs(r_d - w * cfg.v_e_max * cfg.dt) < TOL

    def test_history_updated_and_used(self, cfg):
        # Three frames in a row: each step's previous distance is the one
        # the step before it saw.
        frames = [[det(0, 10.0)], [det(0, 9.0)], [det(0, 9.5), det(2, 4.0)]]
        r_1, r_2 = (step(a, b, cfg).r_d for a, b in zip(frames, frames[1:]))
        # delta = -1, V_rel*dt = 1.5, W = 1 - 9/15 = 0.4
        assert abs(r_1 - 0.4 * (1.5 + 1.0)) < TOL
        # pursuer 0: delta = +0.5; pursuer 2 first seen: zero delta
        expected = (weight(9.5, cfg) * (1.5 - 0.5)
                    + weight(4.0, cfg) * 1.5)
        assert abs(r_2 - expected) < TOL

    def test_disappear_reappear_resets_delta(self, cfg):
        assert step([det(0, 10.0)], [], cfg).r_d == 0.0
        r_d = step([], [det(0, 4.0)], cfg).r_d
        w = weight(4.0, cfg)
        assert abs(r_d - w * 1.5) < TOL

    def test_theta_enters_relative_speed(self, cfg):
        r_d = step([det(0, 10.0)], [det(0, 10.0, speed=10.0, theta=0.0)],
                   cfg).r_d
        # V_rel = 15 - 10*cos(0) = 5
        w = weight(10.0, cfg)
        assert abs(r_d - w * 0.5) < TOL
        r_d2 = step([det(0, 10.0)],
                    [det(0, 10.0, speed=10.0, theta=math.pi)], cfg).r_d
        assert abs(r_d2 - w * 2.5) < TOL

    def test_verbatim_r_d_increases_as_pursuer_closes(self, cfg):
        # the raw component grows as distance shrinks (weight and delta both
        # rise); the signed reward's negation is what penalizes closing
        # pursuers
        values = [step([det(0, 10.0)], [det(0, d_now)], cfg).r_d
                  for d_now in (10.0, 8.0, 6.0)]
        assert values[0] < values[1] < values[2]


class TestRewardBoundary:
    def test_perfect_approach_cancels(self, cfg):
        assert abs(step([], [], cfg, d_b=(50.0, 50.0 - 1.5)).r_b) < TOL

    def test_stationary(self, cfg):
        assert abs(step([], [], cfg, d_b=(50.0, 50.0)).r_b - 1.5) < TOL

    def test_retreating(self, cfg):
        assert abs(step([], [], cfg, d_b=(50.0, 51.5)).r_b - 3.0) < TOL


class TestComposeReward:
    def test_no_detections(self, cfg):
        # r_b = 1.5 - 0.3 = 1.2
        assert abs(step([], [], cfg, d_b=(50.0, 49.7)).r - 0.6) < TOL

    def test_spec_arithmetic(self, cfg):
        # r_b = 1.0, r_d = 0.75, sum_w = 0.5, m = 1, t_f = 0.5
        bd = step([det(0, 7.5)], [det(0, 7.5)], cfg, d_b=(50.0, 49.5))
        assert abs(bd.r - 0.5) < TOL

    def test_timeout_annihilation(self, cfg):
        crowd = [det(i, 1.0 + i, speed=8.0, theta=0.3 * i) for i in range(7)]
        bd = step(crowd[:3], crowd, cfg, d_b=(10.0, 130.0), t_f=0.0)
        assert bd.r == 0.0

    @given(d_now=st.floats(0.01, 15.0), speed=st.floats(0, 10),
           theta=st.floats(0, math.pi), t_f=st.floats(0, 0.5),
           u1=st.floats(-2, 2), u2=st.floats(-2, 2),
           v1=st.floats(-2, 2), v2=st.floats(-2, 2))
    @settings(deadline=None, max_examples=100)
    def test_linearity_by_superposition(self, d_now, speed, theta, t_f,
                                        u1, u2, v1, v2):
        # r is affine in the earlier frame's distances (u: pursuer, v:
        # wall), with the later frame fixed: r(a) + r(b) = r(a + b) + r(0).
        def r(u, v):
            return step([det(0, d_now + u)], [det(0, d_now, speed, theta)],
                        CFG, d_b=(40.0 + v, 40.0), t_f=t_f).r

        assert abs((r(u1, v1) + r(u2, v2))
                   - (r(u1 + u2, v1 + v2) + r(0.0, 0.0))) < 1e-9


detections = st.lists(
    st.tuples(st.integers(0, 7), st.floats(1e-3, CFG.r_e),
              st.floats(0.0, 10.0), st.floats(0.0, math.pi)),
    max_size=8, unique_by=lambda row: row[0],
).map(lambda rows: [det(pid, d, speed, theta)
                    for pid, d, speed, theta in sorted(rows)])


class TestTransitionReward:
    def test_no_detections_at_rest(self, cfg):
        bd = transition_reward(frame([], 40.0, 0.3), frame([], 40.0, 0.5), cfg)
        assert abs(bd.r - 0.5 * cfg.v_e_max * cfg.dt) < TOL
        assert bd.reward == -bd.r

    def test_breakdown_recomposes(self, cfg):
        before = frame([det(0, 11.0)], 40.0, 0.5)
        after = frame([det(0, 10.0), det(1, 5.0)], 39.0, 0.4)
        bd = transition_reward(before, after, cfg)
        expect = 0.4 * ((1.0 - bd.sum_w) / 3.0 * bd.r_b + bd.r_d)
        assert abs(bd.r - expect) < TOL
        assert (bd.r_d, bd.r_b, bd.sum_w, bd.r) == composed_reward(
            before, after, cfg)

    @given(before=detections, after=detections,
           d_b=st.tuples(st.floats(0.0, 150.0), st.floats(0.0, 150.0)),
           t_f=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)))
    @settings(deadline=None, max_examples=300)
    def test_equals_the_composed_helpers(self, before, after, d_b, t_f):
        # Ids drawn from 0-7 on both sides: shared, new and vanished
        # pursuers all occur.
        b = frame(before, d_b[0], t_f[0])
        a = frame(after, d_b[1], t_f[1])
        bd = transition_reward(b, a, CFG)
        assert (bd.r_d, bd.r_b, bd.sum_w, bd.r) == composed_reward(b, a, CFG)
