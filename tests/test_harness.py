import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep import harness, sensing
from cep.config import desk_profile
from cep.env import ArenaConfig, init_world
from cep.harness import (EvalEpisode, _bucketize, _summarize,
                         evaluate_monte_carlo, load_grid, make_policy, replay,
                         sweep, train)
from cep.neural import PolicyBundle, TrainConfig, TrainingDiverged
from cep.sr2l import EpisodeStepper


def episode(i: int, outcome: str, steps: int, mean_reward: float):
    return EvalEpisode(i, outcome, steps, mean_reward * steps, mean_reward)


def episodes_101() -> list[EvalEpisode]:
    """Episode i escapes in 10 + i steps when i is even, else times out."""
    return [episode(i, "escaped" if i % 2 == 0 else "timeout", 10 + i,
                    0.01 * i) for i in range(101)]


def small_bundle() -> PolicyBundle:
    return PolicyBundle.create(desk_profile().sensing.n_s,
                               TrainConfig(hidden=(8,)),
                               np.random.default_rng(0))


class TestSummary:
    def test_101_episodes_fill_buckets_of_100_and_1(self):
        buckets = _bucketize(episodes_101())
        assert [(b.bucket, b.episodes) for b in buckets] == [(0, 100), (1, 1)]
        first, last = buckets
        assert first.escape_pct == 50.0
        assert first.mean_escape_steps == np.mean([10 + i
                                                   for i in range(0, 100, 2)])
        assert first.mean_reward == np.mean([0.01 * i for i in range(100)])
        # Episode 100 is even: it escaped in 110 steps.
        assert (last.escape_pct, last.mean_escape_steps,
                last.mean_reward) == (100.0, 110.0, 1.0)

    def test_bucket_without_escape_has_nan_escape_steps(self):
        records = [episode(i, outcome, 5, -1.0)
                   for i, outcome in enumerate(["timeout", "captured"])]
        (bucket,) = _bucketize(records)
        assert bucket.escape_pct == 0.0
        assert math.isnan(bucket.mean_escape_steps)
        assert bucket.mean_reward == -1.0

    def test_overall_figures_are_one_summary_of_all_episodes(self):
        records = episodes_101()
        escaped = [e.steps for e in records if e.outcome == "escaped"]
        assert _summarize(records) == (
            100.0 * 51 / 101, float(np.mean(escaped)),
            float(np.mean([e.mean_reward for e in records])))

    def test_report_uses_the_summary(self):
        cfg = desk_profile(seed=2)
        report = evaluate_monte_carlo(make_policy("pfm", cfg), cfg,
                                      episodes=3)
        overall = (report.escape_pct, report.mean_escape_steps,
                   report.mean_reward)
        assert overall == _summarize(report.episodes)
        (bucket,) = report.buckets
        assert (bucket.escape_pct, bucket.mean_escape_steps,
                bucket.mean_reward) == overall


def sequential_episodes(policy, cfg, arena, episodes: int) -> list[EvalEpisode]:
    """The per-episode evaluation loop that lockstep evaluation replaced,
    kept as its oracle: each episode runs alone, in a one-world stepper."""
    records = []
    for episode in range(episodes):
        seed = harness._episode_seed(cfg.seed, harness._EVAL_TAG, episode)
        stepper = EpisodeStepper(init_world(arena, seed), arena, cfg.sensing)
        policy.reset([seed])
        cum = 0.0
        steps = 0
        (outcome,) = stepper.world.outcomes
        while outcome is None:
            (outcome,), (breakdown,) = stepper.step_action(policy.act(stepper))
            cum += breakdown.reward
            steps += 1
        records.append(EvalEpisode(episode, outcome.value, steps, cum,
                                   cum / steps if steps else 0.0))
    return records


def small_arena(half: float, n_pursuers: int, t_max: float) -> ArenaConfig:
    """A small arena with a 1 m spawn square, wide capture discs and a short
    budget: spawns that are captured outright, captures, escapes and
    timeouts all occur."""
    return ArenaConfig(half_width=half, half_height=half, spawn_half_extent=1.0,
                       n_pursuers=n_pursuers, capture_radius=1.5, r_p=3.0,
                       r_e=6.0, t_max=t_max)


def policy_of(kind: str, cfg):
    return make_policy(kind, cfg, small_bundle() if kind == "actor" else None)


class TestLockstepEqualsSequential:
    """Stepping the episodes of a call together gives each episode the
    result it has alone: index, outcome, steps and rewards, exactly."""

    @given(kind=st.sampled_from(["pfm", "random", "actor"]),
           episodes=st.integers(1, 12), n_pursuers=st.integers(0, 40),
           half=st.sampled_from([6.0, 15.0, 30.0]),
           t_max=st.sampled_from([0.5, 3.0, 10.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_equals_sequential(self, kind, episodes, n_pursuers, half, t_max,
                               seed):
        cfg = desk_profile(seed=seed)
        arena = small_arena(half, n_pursuers, t_max)
        report = evaluate_monte_carlo(policy_of(kind, cfg), cfg, arena,
                                      episodes)
        assert report.episodes == sequential_episodes(policy_of(kind, cfg), cfg,
                                                      arena, episodes)

    @pytest.mark.parametrize("kind", ["pfm", "random", "actor"])
    def test_call_with_spawn_captures_timeouts_and_staggered_ends(self, kind):
        cfg = desk_profile(seed=0)
        arena = small_arena(15.0, 6, 3.0)
        report = evaluate_monte_carlo(policy_of(kind, cfg), cfg, arena, 12)
        assert report.episodes == sequential_episodes(policy_of(kind, cfg), cfg,
                                                      arena, 12)
        steps = [e.steps for e in report.episodes]
        assert 0 in steps and len(set(steps)) >= 4
        if kind == "random":
            assert "timeout" in {e.outcome for e in report.episodes}

    def test_blocks_of_episodes_equal_one_batch(self, monkeypatch):
        cfg = desk_profile(seed=5)
        arena = small_arena(15.0, 6, 3.0)
        whole = evaluate_monte_carlo(make_policy("random", cfg), cfg, arena, 7)
        monkeypatch.setattr(harness, "_BLOCK_EPISODES", 3)
        blocks = evaluate_monte_carlo(make_policy("random", cfg), cfg, arena, 7)
        assert blocks.episodes == whole.episodes


class TestEpisodeCount:
    @pytest.mark.parametrize("episodes", [0, -1])
    def test_evaluate_needs_an_episode(self, episodes):
        cfg = desk_profile()
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            evaluate_monte_carlo(make_policy("pfm", cfg), cfg,
                                 episodes=episodes)

    def test_sweep_needs_an_episode(self):
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            sweep(small_bundle(), desk_profile(), [(5, 1.5, 1.5)], episodes=0)


def test_sweep_checks_every_cell_before_evaluating(monkeypatch):
    # r_ratio = 10 at the desk profile gives r_p = 1.5 <= capture_radius.
    calls = []
    monkeypatch.setattr(harness, "evaluate_monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    grid = [(5, 1.5, 1.5), (10, 1.0, 0.75), (5, 1.0, 10.0)]
    with pytest.raises(ValueError, match=r"sweep cell .* = \(5, 1\.0, 10\.0\): "
                                         r"capture_radius must be < r_p"):
        sweep(small_bundle(), desk_profile(), grid, episodes=1)
    assert calls == []


class TestMakePolicy:
    @pytest.mark.parametrize("kind", ["iac", "sr2l"])
    def test_training_modes_are_not_policy_kinds(self, kind):
        with pytest.raises(ValueError, match="unknown policy kind"):
            make_policy(kind, desk_profile(), small_bundle())

    @pytest.mark.parametrize("kind", ["actor", "checkpoint"])
    def test_actor_kinds(self, kind):
        assert make_policy(kind, desk_profile(), small_bundle()) is not None


class TestLoadGrid:
    def write(self, tmp_path, text: str):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        return path

    def test_valid_grid(self, tmp_path):
        path = self.write(tmp_path, "n_pursuers,v_ratio,r_ratio\n"
                                    "0,1.5,1.5\n10,1.0,0.75\n")
        assert load_grid(path) == [(0, 1.5, 1.5), (10, 1.0, 0.75)]

    @pytest.mark.parametrize("header", ["v_ratio,r_ratio",
                                        "n_pursuers,r_ratio",
                                        "n_pursuers,v_ratio"])
    def test_missing_column(self, tmp_path, header):
        path = self.write(tmp_path, header + "\n1,1\n")
        with pytest.raises(ValueError, match=r"grid\.csv:1: .*no column"):
            load_grid(path)

    @pytest.mark.parametrize("row", [
        "1.5,1.0,1.0",    # non-integer pursuer count
        "x,1.0,1.0",
        "-1,1.0,1.0",     # negative pursuer count
        "5,0,1.0",        # non-positive ratios
        "5,1.0,0",
        "5,-2.0,1.0",
        "5,inf,1.0",      # non-finite ratios
        "5,1.0,nan",
        "5,1.0",          # a value missing from the row
    ])
    def test_bad_row(self, tmp_path, row):
        path = self.write(tmp_path,
                          f"n_pursuers,v_ratio,r_ratio\n5,1.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match=r"grid\.csv:3: bad sweep cell"):
            load_grid(path)

    def test_empty_grid(self, tmp_path):
        path = self.write(tmp_path, "n_pursuers,v_ratio,r_ratio\n")
        with pytest.raises(ValueError, match="empty sweep grid"):
            load_grid(path)


def test_divergence_rolls_back_to_the_last_episode(monkeypatch, tmp_path):
    # The first critic update of episode 1 leaves non-finite parameters, as
    # a diverged step does: training halts with the bundle, log and final
    # checkpoint of a one-episode run.  Updates start within episode 0 with
    # a batch of 8.
    cfg = desk_profile(mode="sr2l", episodes=1, seed=2)
    cfg = replace(cfg, train=replace(cfg.train, batch_size=8))
    one, (log,) = train(cfg, tmp_path / "one")
    assert log.updates > 0
    calls = 0
    update = harness.critic_update

    def diverging(batch, nets, *args):
        nonlocal calls
        calls += 1
        if calls > log.updates:
            nets.critic.params[:] = np.nan
            raise TrainingDiverged("critic parameters became non-finite")
        return update(batch, nets, *args)

    monkeypatch.setattr(harness, "critic_update", diverging)
    bundle, logs = train(replace(cfg, episodes=2), tmp_path / "two")
    assert calls == log.updates + 1
    assert logs == [log]
    for name in ("actor", "critic", "target_critic"):
        assert np.array_equal(getattr(bundle, name).params,
                              getattr(one, name).params)
    final = "policy_final.cepn"
    assert (tmp_path / "two" / final).read_bytes() == \
        (tmp_path / "one" / final).read_bytes()
    assert (tmp_path / "two" / "DIVERGED").exists()
    assert not (tmp_path / "one" / "DIVERGED").exists()


class TestComputedOnlyWhenRead:
    """The lidar and boundary scans feed only the actor's observation (and
    the lidar the replay's ``min_lidar`` column): a policy that never reads
    it never has one built, and a reader has one built per step for the
    whole batch."""

    @pytest.fixture
    def scans(self, monkeypatch):
        """Calls of ``cast_rays`` and ``boundary_scan``, counted at every
        module of the package that binds them."""
        counts = {}
        for name in ("cast_rays", "boundary_scan"):
            original = getattr(sensing, name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "cep" and \
                        getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("kind", ["pfm", "random"])
    def test_planner_and_random_walk_cast_no_ray(self, scans, kind):
        cfg = desk_profile(seed=1)
        report = evaluate_monte_carlo(make_policy(kind, cfg), cfg, episodes=3)
        assert sum(e.steps for e in report.episodes) > 0
        assert scans == {"cast_rays": 0, "boundary_scan": 0}

    def test_actor_evaluation_observes_once_per_step(self, scans):
        # One scan of the live batch per lockstep step, as many as the
        # longest episode has; the final worlds' are never read, so never
        # built.
        cfg = desk_profile(seed=1)
        report = evaluate_monte_carlo(make_policy("actor", cfg, small_bundle()),
                                      cfg, episodes=3)
        steps = [e.steps for e in report.episodes]
        assert min(steps) < max(steps)
        assert scans == {"cast_rays": max(steps), "boundary_scan": max(steps)}

    def test_training_observes_once_per_step_and_episode_start(self, scans):
        # A step's next state is the following step's state, built once.
        cfg = desk_profile(mode="sr2l", episodes=2, seed=1)
        _, logs = train(cfg)
        assert all(log.steps > 0 for log in logs)
        expected = sum(log.steps for log in logs) + len(logs)
        assert scans == {"cast_rays": expected, "boundary_scan": expected}

    def test_replay_casts_once_per_row(self, scans, tmp_path):
        # Row 0 and every step's row read the lidar; the actor's observation
        # reuses the same scan, and the final world's is never built.
        rows = replay(small_bundle(), 11, desk_profile(seed=3),
                      tmp_path / "trajectory.csv")
        assert rows > 1
        assert scans == {"cast_rays": rows, "boundary_scan": rows - 1}
