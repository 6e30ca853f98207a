import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep.env import ArenaConfig
from cep.pfm import PfmGains, net_force, pfm_action
from cep.sensing import Detection, SenseFrame

TOL = 1e-12


@pytest.fixture
def cfg():
    return ArenaConfig(half_width=100.0, half_height=100.0,
                       spawn_half_extent=10.0, n_pursuers=0, t_max=50.0)


def det(distance, bearing):
    return Detection(distance, bearing, 5.0, 0.0)


def frame(dets, nearest_boundary):
    """A frame of ``dets``, pursuers 0, 1, ... in order, with the nearest
    wall ``nearest_boundary``: (distance, unit direction toward it)."""
    d_b, boundary_dir = nearest_boundary
    return SenseFrame(dict(enumerate(dets)), d_b, boundary_dir, 0.5)


class TestNetForce:
    def test_single_pursuer_and_wall(self):
        gains = PfmGains(k_p=1.0, k_b=1.0)
        # pursuer 10 m ahead (+x), wall 50 m behind (-x)
        f = net_force(frame([det(10.0, 0.0)], (50.0, (-1.0, 0.0))), gains)
        assert abs(f[0] + 0.0104) < 1e-9
        assert abs(f[1]) < TOL

    def test_no_detections_along_boundary_dir(self):
        gains = PfmGains()
        f = net_force(frame([], (25.0, (0.6, 0.8))), gains)
        norm = math.hypot(*f)
        assert abs(f[0] / norm - 0.6) < TOL and abs(f[1] / norm - 0.8) < TOL

    def test_symmetric_pursuers_cancel_lateral(self):
        gains = PfmGains()
        dets = [Detection(8.0, math.pi / 3, 5.0, 0.0),
                Detection(8.0, -math.pi / 3, 5.0, 0.0)]
        f = net_force(frame(dets, (30.0, (1.0, 0.0))), gains)
        assert abs(f[1]) < TOL

    def test_singularity_floor(self):
        gains = PfmGains(singularity_floor=0.5)
        nb = (50.0, (-1.0, 0.0))
        f_close = net_force(frame([det(1e-9, 0.0)], nb), gains)
        f_floor = net_force(frame([det(0.5, 0.0)], nb), gains)
        assert abs(f_close[0] - f_floor[0]) < TOL

    @given(phi=st.floats(-math.pi, math.pi))
    @settings(deadline=None, max_examples=50)
    def test_rotation_equivariance(self, phi):
        gains = PfmGains()
        dets = [Detection(6.0, 0.4, 5.0, 0.0),
                Detection(11.0, -1.2, 7.0, 0.0)]
        nb = (20.0, (math.cos(0.9), math.sin(0.9)))
        fx, fy = net_force(frame(dets, nb), gains)

        rdets = [d._replace(bearing=d.bearing + phi) for d in dets]
        rnb = (20.0, (math.cos(0.9 + phi), math.sin(0.9 + phi)))
        gx, gy = net_force(frame(rdets, rnb), gains)

        c, s = math.cos(phi), math.sin(phi)
        assert abs(gx - (c * fx - s * fy)) < 1e-9
        assert abs(gy - (s * fx + c * fy)) < 1e-9

    def test_added_pursuer_ahead_pushes_back(self):
        gains = PfmGains()
        nb = (40.0, (1.0, 0.0))
        f_before = net_force(frame([], nb), gains)
        f_after = net_force(frame([det(5.0, 0.0)], nb), gains)
        assert f_after[0] < f_before[0]


class TestPfmAction:
    def test_normalizes_to_full_speed(self, cfg):
        v = pfm_action((-0.0104, 0.0), cfg)
        assert abs(v[0] + 15.0) < 1e-9 and abs(v[1]) < TOL

    def test_null_force(self, cfg):
        assert pfm_action((0.0, 0.0), cfg) == (0.0, 0.0)

    def test_3_4_5(self, cfg):
        v = pfm_action((3.0, 4.0), cfg)
        assert abs(v[0] - 9.0) < 1e-9 and abs(v[1] - 12.0) < 1e-9

    @given(fx=st.floats(-10, 10), fy=st.floats(-10, 10))
    @settings(deadline=None, max_examples=100)
    def test_output_norm_zero_or_max(self, fx, fy):
        arena = ArenaConfig(half_width=100.0, half_height=100.0,
                            spawn_half_extent=10.0, n_pursuers=0, t_max=50.0)
        v = pfm_action((fx, fy), arena)
        norm = math.hypot(*v)
        assert norm == 0.0 or abs(norm - arena.v_e_max) < 1e-6
