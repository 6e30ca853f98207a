import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep import sensing
from cep.env import (ArenaConfig, EvaderState, Pursuers, WorldState,
                     init_world, max_steps, nearest_wall)
from cep.sensing import (SensingConfig, _ray_directions, boundary_scan,
                         cast_rays, observe, sense, time_factor)

TOL = 1e-12


def arena(**kw) -> ArenaConfig:
    base = dict(half_width=100.0, half_height=100.0, spawn_half_extent=10.0,
                n_pursuers=0, t_max=50.0)
    base.update(kw)
    return ArenaConfig(**base)


def world_with(evader, rows, cfg):
    """A world holding ``evader`` and one pursuer per ``(x, y, speed,
    heading)`` row."""
    return WorldState([evader], Pursuers.from_rows(rows))


def observe_scans(monkeypatch, lidar, boundary, t_f, scfg):
    """``observe`` of a world at the time whose factor is ``t_f`` (0.5 or 0),
    given the lidar ranges, with the boundary scan replaced by the given
    ranges."""
    cfg = arena()
    monkeypatch.setattr(sensing, "boundary_scan",
                        lambda xy, a, c: np.asarray(boundary, dtype=float))
    w = init_world(cfg, 0)
    w.step_count = max_steps(cfg) if t_f == 0.0 else 0
    return observe(w, np.asarray(lidar, dtype=float), cfg, scfg)


def full_cast(w, arena, cfg):
    """Reference lidar: every pursuer's disc intersected with every ray."""
    if not w.pursuers.speed.size:
        return np.full(cfg.n_s, arena.r_e)
    rel = w.pursuers.xy[0] - (w.evaders[0].x, w.evaders[0].y)
    dists = np.hypot(rel[:, 0], rel[:, 1])
    cx, sx = _ray_directions(cfg.n_s)[0]
    radius = arena.capture_radius / 2.0
    t_c = rel[:, 0:1] * cx[None, :] + rel[:, 1:2] * sx[None, :]
    perp_sq = (dists ** 2)[:, None] - t_c ** 2
    disc = radius ** 2 - perp_sq
    hit = disc >= 0.0
    h = np.sqrt(np.maximum(disc, 0.0))
    t0 = t_c - h
    t1 = t_c + h
    t = np.where(t0 > 0.0, t0, np.where(t1 > 0.0, t1, np.inf))
    t = np.where(hit, t, np.inf)
    return np.minimum(t.min(axis=0), arena.r_e)


def reference_scan(pos, arena, cfg):
    """Reference boundary scan of one position, ray by ray in Python
    floats: per axis the offset to the wall the ray heads for over the
    direction cosine (``inf`` on a ray parallel to that axis' walls), the
    smaller of the two; all 0 outside the arena."""
    x, y = pos
    if abs(x) > arena.half_width or abs(y) > arena.half_height:
        return np.zeros(cfg.n_s)

    def length(wall, p, c):
        if c > 0.0:
            return (wall - p) / c
        return (-wall - p) / c if c < 0.0 else math.inf

    return np.array([min(length(arena.half_width, x, c),
                         length(arena.half_height, y, s))
                     for c, s in zip(*_ray_directions(cfg.n_s)[0].tolist())])


class TestCastRays:
    def test_empty_arena_all_max_range(self):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        w = world_with(EvaderState(0.0, 0.0), [], cfg)
        assert np.all(cast_rays(w, cfg, scfg) == cfg.r_e)
        assert sense(w, cfg)[0].detections == []

    def test_pursuer_on_ray_zero(self):
        # disc small enough that only ray 0 intersects it
        cfg = arena(capture_radius=0.5)
        scfg = SensingConfig(n_s=36)
        p = (5.0, 0.0, 5.0, 0.0)
        w = world_with(EvaderState(0.0, 0.0), [p], cfg)
        (scan,) = cast_rays(w, cfg, scfg)
        detections = sense(w, cfg)[0].detections
        assert scan[0] < 5.0
        assert abs(scan[0] - (5.0 - cfg.capture_radius / 2)) < 1e-9
        assert np.all(scan[1:] == cfg.r_e)
        assert len(detections) == 1 and detections[0].distance == 5.0

    def test_pursuer_beyond_range_absent(self):
        cfg = arena()
        p = (cfg.r_e + 1.0, 0.0, 5.0, 0.0)
        w = world_with(EvaderState(0.0, 0.0), [p], cfg)
        assert sense(w, cfg)[0].detections == []

    def test_occlusion_nearest_hit(self):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        near = (4.0, 0.0, 5.0, 0.0)
        far = (8.0, 0.0, 5.0, 0.0)
        w = world_with(EvaderState(0.0, 0.0), [far, near], cfg)
        (scan,) = cast_rays(w, cfg, scfg)
        assert abs(scan[0] - (4.0 - cfg.capture_radius / 2)) < 1e-9
        assert len(sense(w, cfg)[0].detections) == 2

    def test_detection_theta_head_on(self):
        cfg = arena()
        # pursuer at (5, 0) heading west, straight at the evader
        p = (5.0, 0.0, 5.0, math.pi)
        w = world_with(EvaderState(0.0, 0.0), [p], cfg)
        detections = sense(w, cfg)[0].detections
        assert abs(detections[0].theta) < 1e-9
        assert abs(detections[0].bearing) < 1e-9

    def test_lidar_monotone_in_distance(self):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        prev = math.inf
        for d in np.linspace(14.0, 2.0, 30):
            p = (d, 0.0, 5.0, 0.0)
            w = world_with(EvaderState(0.0, 0.0), [p], cfg)
            (scan,) = cast_rays(w, cfg, scfg)
            assert scan[0] <= prev + 1e-12
            prev = scan[0]

    def test_scene_rotation_permutes_ranges(self):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-12, 12, size=(6, 2))
        pursuers = [(x, y, 5.0, 0.0) for x, y in pts
                    if math.hypot(x, y) > 3.0]
        w = world_with(EvaderState(0.0, 0.0), pursuers, cfg)
        (scan,) = cast_rays(w, cfg, scfg)

        step = 2 * math.pi / scfg.n_s
        c, s = math.cos(step), math.sin(step)
        rotated = [(c * x - s * y, s * x + c * y, 5.0, 0.0)
                   for x, y, _, _ in pursuers]
        w2 = world_with(EvaderState(0.0, 0.0), rotated, cfg)
        (scan2,) = cast_rays(w2, cfg, scfg)
        assert np.allclose(np.roll(scan, 1), scan2, atol=1e-9)

    def test_heading_does_not_affect_scan(self):
        # the sensing frame is evader-centered and axis-aligned: the evader's
        # direction of motion does not rotate it
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        pursuers = [(6.0, 2.0, 5.0, 0.0),
                    (-4.0, -7.0, 5.0, 0.0)]
        w = world_with(EvaderState(0.0, 0.0, 3.0, 1.0), pursuers, cfg)
        scan = cast_rays(w, cfg, scfg)
        w2 = world_with(EvaderState(0.0, 0.0, -2.0, -7.0), pursuers, cfg)
        scan2 = cast_rays(w2, cfg, scfg)
        assert np.array_equal(scan, scan2)


class TestRestrictedCast:
    """``cast_rays`` intersects only pursuers within the cut-off
    ``(r_e + capture_radius / 2) * (1 + 1e-9)``, for the whole batch at
    once; each world's row must equal the full cast of that world alone,
    exactly."""

    CFG = arena(capture_radius=2.0, r_e=10.0)
    CUT = (10.0 + 1.0) * (1.0 + 1e-9)
    # Pursuer offsets from the evader as (angle, distance): near, on and
    # around the cut-off, or out of reach.
    OFFSETS = st.tuples(st.floats(0.0, 2.0 * math.pi),
                        st.one_of(st.floats(0.0, 25.0),
                                  st.sampled_from([CUT, 11.0, 10.0, 1.0]),
                                  st.floats(10.9, 11.1),
                                  st.floats(11.5, 60.0)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40),
           evaders=st.lists(st.tuples(st.floats(-20.0, 20.0),
                                      st.floats(-20.0, 20.0)),
                            min_size=1, max_size=3),
           outside=st.tuples(st.floats(100.5, 130.0),
                             st.floats(-130.0, 130.0)),
           n_s=st.sampled_from([4, 7, 36, 72]))
    def test_equals_full_cast(self, data, n, evaders, outside, n_s):
        # The last world's evader is outside the arena.
        alone = []
        for ex, ey in [*evaders, outside]:
            offsets = data.draw(st.lists(self.OFFSETS, min_size=n, max_size=n))
            rows = [(ex + r * math.cos(a), ey + r * math.sin(a), 5.0, 0.0)
                    for a, r in offsets]
            alone.append(world_with(EvaderState(ex, ey), rows, self.CFG))
        batch = WorldState([w.evaders[0] for w in alone],
                           Pursuers.stack([w.pursuers for w in alone]))
        scfg = SensingConfig(n_s=n_s)
        scan = cast_rays(batch, self.CFG, scfg)
        assert scan.shape == (len(alone), n_s)
        for row, w in zip(scan, alone):
            assert np.array_equal(row, full_cast(w, self.CFG, scfg))

    def test_pursuer_on_cut_off_along_a_ray(self):
        # Centers on ray 0 at and around the cut-off: the disc's near edge
        # sits at about r_e, so ray 0's range is r_e or just below it.
        scfg = SensingConfig(n_s=36)
        for r in (11.0 - 1e-12, 11.0, self.CUT, 11.0 + 1e-9, 11.0 + 1e-6):
            w = world_with(EvaderState(0.0, 0.0), [(r, 0.0, 5.0, 0.0)],
                           self.CFG)
            assert np.array_equal(cast_rays(w, self.CFG, scfg)[0],
                                  full_cast(w, self.CFG, scfg))

    def test_none_near_gives_max_range(self):
        scfg = SensingConfig(n_s=36)
        w = world_with(EvaderState(0.0, 0.0), [(0.0, 12.0, 5.0, 0.0)],
                       self.CFG)
        assert np.all(cast_rays(w, self.CFG, scfg) == self.CFG.r_e)


class TestBatch:
    """A batch of worlds senses, casts and observes each world exactly as
    that world alone."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
           n=st.integers(0, 40), steps=st.integers(0, 500))
    def test_each_world_as_alone(self, seeds, n, steps):
        cfg = arena(half_width=20.0, half_height=20.0, spawn_half_extent=5.0,
                    n_pursuers=n)
        scfg = SensingConfig(n_s=36)
        worlds = [init_world(cfg, seed) for seed in seeds]
        for w in worlds:
            w.step_count = steps
        batch = WorldState.stack(worlds)
        frames = sense(batch, cfg)
        lidars = cast_rays(batch, cfg, scfg)
        observations = observe(batch, lidars, cfg, scfg)
        assert observations.shape == (len(worlds), scfg.n_s)
        for e, w in enumerate(worlds):
            assert frames[e] == sense(w, cfg)[0]
            lidar = cast_rays(w, cfg, scfg)
            assert np.array_equal(lidars[e], lidar[0])
            assert np.array_equal(observations[e],
                                  observe(w, lidar, cfg, scfg)[0])

    def test_take_keeps_the_chosen_worlds(self):
        cfg = arena(half_width=20.0, half_height=20.0, spawn_half_extent=5.0,
                    n_pursuers=12)
        worlds = [init_world(cfg, seed) for seed in range(4)]
        batch = WorldState.stack(worlds).take([3, 1])
        assert batch.evaders == [worlds[3].evaders[0], worlds[1].evaders[0]]
        assert sense(batch, cfg) == sense(worlds[3], cfg) + sense(worlds[1], cfg)

    def test_stack_needs_one_step(self):
        cfg = arena(n_pursuers=3)
        later = init_world(cfg, 1)
        later.step_count = 1
        with pytest.raises(ValueError, match="same step"):
            WorldState.stack([init_world(cfg, 0), later])


class TestRayDirections:
    def test_computed_once_and_read_only(self):
        dirs, signs, divisors = _ray_directions(36)
        assert _ray_directions(36)[0] is dirs
        assert not any(a.flags.writeable for a in (dirs, signs, divisors))
        angles = 2.0 * math.pi * np.arange(36) / 36
        assert np.array_equal(dirs, [np.cos(angles), np.sin(angles)])
        # Only ray 0 runs exactly parallel to an axis' walls: sin 0 == 0.
        parallel = dirs == 0.0
        assert parallel.sum() == 1 and parallel[1, 0]
        assert np.array_equal(signs, np.where(parallel, np.inf, np.sign(dirs)))
        assert np.array_equal(divisors, np.where(parallel, 1.0, dirs))


class TestEncodeLidar:
    def test_values(self, monkeypatch):
        # With w_b = 0 and t_f = 0.5 the observation is half the lidar code.
        r_e = arena().r_e
        scfg = SensingConfig(n_s=4, k_s=1.0, w_b=0.0)
        enc = 2.0 * observe_scans(monkeypatch, [r_e, r_e / 2, 1e-9, r_e],
                                  np.zeros(4), 0.5, scfg)
        assert abs(enc[0] - 1.0) < TOL
        assert abs(enc[1] - 0.5) < TOL
        assert enc[2] < 1e-9 and enc[2] > 0


class TestBoundaryScan:
    def test_center_axis_ray(self):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        (scan,) = boundary_scan([(0.0, 0.0)], cfg, scfg)
        assert abs(scan[0] - 100.0) < 1e-9

    def test_center_diagonal_ray(self):
        cfg = arena()
        scfg = SensingConfig(n_s=8)   # ray 1 at 45 degrees
        (scan,) = boundary_scan([(0.0, 0.0)], cfg, scfg)
        assert abs(scan[1] - 100.0 * math.sqrt(2)) < 1e-9

    def test_outside_is_zero(self):
        cfg = arena()
        scfg = SensingConfig(n_s=8)
        scan = boundary_scan([(150.0, 0.0), (0.0, 0.0), (0.0, -100.5)], cfg,
                             scfg)
        assert np.all(scan[[0, 2]] == 0.0) and np.all(scan[1] > 0.0)

    def test_encode_far_boundary_zero(self, monkeypatch):
        # With w_l = 0 and t_f = 0.5 the observation is half the boundary code.
        scfg = SensingConfig(n_s=4, r_b_norm=200.0, w_l=0.0)
        enc = 2.0 * observe_scans(monkeypatch, np.zeros(4),
                                  [200.0, 100.0, 0.0, 50.0], 0.5, scfg)
        assert abs(enc[0]) < TOL
        assert abs(enc[1] - 0.5) < TOL
        assert abs(enc[2] - 1.0) < TOL

    @pytest.mark.parametrize("seed", range(20))
    def test_min_ray_vs_perpendicular_distance(self, seed):
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        rng = np.random.default_rng(seed)
        pos = (rng.uniform(-99, 99), rng.uniform(-99, 99))
        scan = boundary_scan([pos], cfg, scfg)
        d_b = nearest_wall(pos, cfg)[0]
        m = float(np.min(scan))
        assert m >= d_b - 1e-9
        assert m <= d_b + 2 * math.pi * d_b / scfg.n_s + 1e-9

    @pytest.mark.parametrize("pos", [(0.0, 100.0), (0.0, -100.0),
                                     (100.0, 100.0)])
    def test_on_a_wall_without_warning(self, pos):
        # Ray 0 runs along the north and south walls (sin 0 == 0).
        cfg = arena()
        scfg = SensingConfig(n_s=36)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (scan,) = boundary_scan([pos], cfg, scfg)
        assert np.array_equal(scan, reference_scan(pos, cfg, scfg))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(-120.0, 120.0),
                                   st.floats(-120.0, 120.0)),
                         min_size=1, max_size=5),
           n_s=st.sampled_from([4, 7, 36, 72]))
    def test_each_row_as_the_reference(self, rows, n_s):
        cfg = arena()
        scfg = SensingConfig(n_s=n_s)
        scan = boundary_scan(rows, cfg, scfg)
        for row, pos in zip(scan, rows):
            assert np.array_equal(row, reference_scan(pos, cfg, scfg))


class TestTimeFactor:
    def test_start(self):
        assert abs(time_factor(0.0, 100.0) - 0.5) < TOL

    def test_halfway(self):
        assert abs(time_factor(50.0, 100.0) - 0.25) < TOL

    def test_timeout(self):
        assert time_factor(100.0, 100.0) == 0.0

    def test_beyond_raises(self):
        with pytest.raises(ValueError):
            time_factor(100.1, 100.0)


class TestEncodeState:
    # Lidar ranges of r_e and boundary ranges of 0 encode to 1.0, boundary
    # ranges of r_b_norm / 2 to 0.5.
    def test_weighted_average(self, monkeypatch):
        scfg = SensingConfig(n_s=4, w_l=1.0, w_b=1.0, r_b_norm=200.0)
        sv = observe_scans(monkeypatch, np.full(4, arena().r_e),
                           np.full(4, 100.0), 0.5, scfg)
        assert np.allclose(sv, 0.375, atol=TOL)

    def test_timeout_annihilation(self, monkeypatch):
        scfg = SensingConfig(n_s=4)
        sv = observe_scans(monkeypatch, np.full(4, arena().r_e), np.zeros(4),
                           0.0, scfg)
        assert np.all(sv == 0.0)

    def test_single_source(self, monkeypatch):
        scfg = SensingConfig(n_s=4, w_l=1.0, w_b=0.0)
        lidar = np.array([0.2, 0.4, 0.6, 0.8])
        sv = observe_scans(monkeypatch, lidar * arena().r_e, np.zeros(4), 0.5,
                           scfg)
        assert np.allclose(sv, 0.5 * lidar, atol=TOL)

    @pytest.mark.parametrize("seed", range(10))
    def test_state_bounds_full_pipeline(self, seed):
        cfg = arena(n_pursuers=10)
        scfg = SensingConfig(n_s=36, r_b_norm=200.0)
        w = init_world(cfg, seed)
        state = observe(w, cast_rays(w, cfg, scfg), cfg, scfg)
        assert np.all(state >= 0.0)
        assert np.all(state <= scfg.k_s / 2 + TOL)
