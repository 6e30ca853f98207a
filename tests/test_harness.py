import csv
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cep import harness, neural, sensing
from cep.config import desk_profile, load_config
from cep.env import ArenaConfig, init_world
from cep.harness import (EvalEpisode, EvalSummary, _summarize,
                         evaluate_monte_carlo, load_grid, make_policy, replay,
                         sweep, sweep_arena, train, write_eval_summary,
                         write_sweep_csv)
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


def evaluate_records(monkeypatch, records: list[EvalEpisode]):
    """The report of an evaluation whose episodes end as ``records``."""
    monkeypatch.setattr(harness, "_evaluate_block",
                        lambda policy, arena, block, seeds:
                        [records[i] for i in block])
    return evaluate_monte_carlo(None, desk_profile(), episodes=len(records))


class TestSummary:
    def test_101_episodes_fill_buckets_of_100_and_1(self, monkeypatch):
        buckets = evaluate_records(monkeypatch, episodes_101()).buckets
        assert [(b.scope, b.episodes) for b in buckets] == [("bucket_0", 100),
                                                           ("bucket_1", 1)]
        first, last = buckets
        assert first.escape_pct == 50.0
        assert first.mean_escape_steps == np.mean([10 + i
                                                   for i in range(0, 100, 2)])
        assert first.mean_reward == np.mean([0.01 * i for i in range(100)])
        # Episode 100 is even: it escaped in 110 steps.
        assert (last.escape_pct, last.mean_escape_steps,
                last.mean_reward) == (100.0, 110.0, 1.0)

    def test_bucket_without_escape_has_nan_escape_steps(self, monkeypatch):
        records = [episode(i, outcome, 5, -1.0)
                   for i, outcome in enumerate(["timeout", "captured"])]
        (bucket,) = evaluate_records(monkeypatch, records).buckets
        assert (bucket.scope, bucket.episodes) == ("bucket_0", 2)
        assert bucket.escape_pct == 0.0
        assert math.isnan(bucket.mean_escape_steps)
        assert bucket.mean_reward == -1.0

    def test_overall_figures_are_one_summary_of_all_episodes(self):
        records = episodes_101()
        escaped = [e.steps for e in records if e.outcome == "escaped"]
        assert _summarize("all", records) == EvalSummary(
            "all", 101, 100.0 * 51 / 101, float(np.mean(escaped)),
            float(np.mean([e.mean_reward for e in records])))

    def test_report_uses_the_summary(self):
        cfg = desk_profile(seed=2)
        report = evaluate_monte_carlo(make_policy("pfm", cfg), cfg,
                                      episodes=3)
        assert report.overall == _summarize("all", report.episodes)
        assert report.buckets == [replace(report.overall, scope="bucket_0")]


def sha1_of(path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


class TestOutputBytes:
    """The bytes of ``eval_summary.csv`` and ``sweep.csv``, recorded before
    the summary became one record type."""

    @pytest.mark.parametrize("kind,episodes,digest", [
        # Buckets of 100, 100 and 50 episodes.
        ("pfm", 250, "37b588ec9e5d3e70264145e0f52e4493c2130ca1"),
        # No escape: the rows hold nan.
        ("random", 3, "41d3dfb16888b79b453c20545838d5b97caa2628"),
    ])
    def test_eval_summary(self, tmp_path, kind, episodes, digest):
        cfg = desk_profile(seed=0)
        report = evaluate_monte_carlo(make_policy(kind, cfg), cfg,
                                      episodes=episodes)
        write_eval_summary(tmp_path / "eval_summary.csv", report)
        assert sha1_of(tmp_path / "eval_summary.csv") == digest

    def test_sweep(self, tmp_path):
        cfg = desk_profile(seed=0)
        grid = [(5, 1.5, 1.5), (10, 1.0, 0.75)]
        summaries = sweep(policy_of("checkpoint", cfg), cfg, grid, episodes=3)
        write_sweep_csv(tmp_path / "sweep.csv", grid, summaries)
        assert sha1_of(tmp_path / "sweep.csv") == \
            "7268389f1c3d3e98ab26aba118968f0b2a8da3b6"


def lone_episode(policy, cfg, arena, seed: int):
    """The outcome and per-step rewards of one episode of ``policy`` from
    ``init_world(arena, seed)``, run alone in a one-world stepper."""
    stepper = EpisodeStepper(init_world(arena, seed))
    policy.reset([seed])
    rewards = []
    (outcome,) = stepper.world.outcomes
    while outcome is None:
        (breakdown,) = stepper.step_action(policy.act(stepper))
        (outcome,) = stepper.world.outcomes
        rewards.append(breakdown.reward)
    return outcome, rewards


def sequential_episodes(policy, cfg, arena, episodes: int) -> list[EvalEpisode]:
    """The per-episode evaluation loop that lockstep evaluation replaced,
    kept as its oracle: each episode runs alone, in a one-world stepper."""
    records = []
    for episode in range(episodes):
        seed = harness._episode_seed(cfg.seed, harness._EVAL_TAG, episode)
        outcome, rewards = lone_episode(policy, cfg, arena, seed)
        cum = 0.0
        for reward in rewards:
            cum += reward
        steps = len(rewards)
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
    return make_policy(kind, cfg,
                       small_bundle() if kind == "checkpoint" else None)


class TestLockstepEqualsSequential:
    """Stepping the episodes of a call together gives each episode the
    result it has alone: index, outcome, steps and rewards, exactly."""

    @given(kind=st.sampled_from(["pfm", "random", "checkpoint"]),
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

    @pytest.mark.parametrize("kind", ["pfm", "random", "checkpoint"])
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


SMALL = small_arena(15.0, 6, 3.0)
# init_world(SMALL, SPAWN_CAPTURED) is captured before its first step.
SPAWN_CAPTURED = 38


def test_recorder_reads_the_world_before_and_after_every_step():
    # Replay writes its rows with this recorder: row 0 before the first
    # step, then one per step, each before ended episodes leave the batch.
    cfg = desk_profile(seed=0)
    seeds = [harness._episode_seed(cfg.seed, harness._EVAL_TAG, i)
             for i in range(12)]
    calls, rewards = [], []

    def record(stepper, breakdowns):
        calls.append((stepper.world.step_count, len(breakdowns),
                      list(stepper.live)))
        rewards.append([bd.reward for bd in breakdowns])

    block = harness._evaluate_block(policy_of("random", cfg), SMALL,
                                    range(12), seeds, record)
    assert block == harness._evaluate_block(policy_of("random", cfg), SMALL,
                                            range(12), seeds)
    steps = [e.steps for e in block]
    assert 0 in steps and len(set(steps)) >= 4
    # Call t follows step t (call 0 precedes the first): its episodes are
    # those live for step t, each with one breakdown; no call follows the
    # last step.
    live = [[k for k in range(12) if steps[k] >= t]
            for t in range(max(steps) + 1)]
    assert calls == [(0, 0, list(range(12)))] + [
        (t, len(live[t]), live[t]) for t in range(1, max(steps) + 1)]
    # Breakdowns come in stepper.live order: each is its episode's own.
    lone = [lone_episode(policy_of("random", cfg), cfg, SMALL, seed)[1]
            for seed in seeds]
    assert rewards == [[]] + [[lone[k][t - 1] for k in live[t]]
                              for t in range(1, max(steps) + 1)]


@pytest.mark.parametrize("kind,arena,seed,outcome", [
    pytest.param("pfm", None, 11, "escaped", id="pfm"),
    pytest.param("random", None, 11, "captured", id="random"),
    pytest.param("checkpoint", None, 11, "captured", id="checkpoint"),
    pytest.param("pfm", SMALL, 1, "escaped", id="small-pfm-escaped"),
    pytest.param("pfm", SMALL, 25, "captured", id="small-pfm-captured"),
    pytest.param("pfm", SMALL, 0, "timeout", id="small-pfm-timeout"),
    pytest.param("random", SMALL, 2, "captured", id="small-random-captured"),
    pytest.param("random", SMALL, 3, "timeout", id="small-random-timeout"),
    pytest.param("checkpoint", SMALL, 2, "captured",
                 id="small-checkpoint-captured"),
    pytest.param("checkpoint", SMALL, 0, "timeout",
                 id="small-checkpoint-timeout"),
    *[pytest.param(kind, SMALL, SPAWN_CAPTURED, "captured",
                   id=f"small-{kind}-spawn")
      for kind in ("pfm", "random", "checkpoint")],
])
def test_replay_runs_any_policy(tmp_path, kind, arena, seed, outcome):
    # Before: replay took a bundle, so only an actor's episode could be
    # written.  Replay is the evaluation loop with a row recorder: its rows
    # are the lone episode's steps, however the episode ends.
    cfg = desk_profile(seed=3)
    cfg = replace(cfg, arena=arena) if arena is not None else cfg
    lone, rewards = lone_episode(policy_of(kind, cfg), cfg, cfg.arena, seed)
    assert lone.value == outcome
    path = tmp_path / "trajectory.csv"
    assert replay(policy_of(kind, cfg), seed, cfg, path) == len(rewards) + 1
    with open(path, newline="") as fh:
        data = list(csv.DictReader(fh))
    assert [row["outcome"] for row in data] == [""] * len(rewards) + [outcome]
    # Row 0 is the initial state; each later row holds its step's reward at
    # the file's 9 significant digits.
    assert [row["reward"] for row in data] == ["0"] + [f"{r:.9g}"
                                                      for r in rewards]
    if seed == SPAWN_CAPTURED:
        # Row 0 only, already terminal.
        assert rewards == [] and [row["step"] for row in data] == ["0"]


class TestEpisodeCount:
    @pytest.mark.parametrize("episodes", [0, -1])
    def test_evaluate_needs_an_episode(self, episodes):
        cfg = desk_profile()
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            evaluate_monte_carlo(make_policy("pfm", cfg), cfg,
                                 episodes=episodes)

    def test_sweep_needs_an_episode(self):
        cfg = desk_profile()
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            sweep(policy_of("checkpoint", cfg), cfg, [(5, 1.5, 1.5)],
                  episodes=0)


def test_sweep_checks_every_cell_before_evaluating(monkeypatch):
    # r_ratio = 10 at the desk profile gives r_p = 1.5 <= capture_radius.
    calls = []
    monkeypatch.setattr(harness, "evaluate_monte_carlo",
                        lambda *args, **kwargs: calls.append(args))
    cfg = desk_profile()
    grid = [(5, 1.5, 1.5), (10, 1.0, 0.75), (5, 1.0, 10.0)]
    with pytest.raises(ValueError, match=r"sweep cell .* = \(5, 1\.0, 10\.0\): "
                                         r"capture_radius must be < r_p"):
        sweep(policy_of("checkpoint", cfg), cfg, grid, episodes=1)
    assert calls == []


@pytest.mark.parametrize("cell", [(5, 0.0, 1.0), (5, 1.0, 0.0),
                                  (5, -1.0, 1.0), (5, 1.0, math.inf),
                                  (5, math.nan, 1.0)])
def test_sweep_arena_names_a_cell_whose_ratio_is_not_positive(cell):
    # Before: a zero ratio raised a bare ZeroDivisionError.
    with pytest.raises(ValueError, match=r"^sweep cell .* = \(5, .*\): the "
                                         r"ratios must be finite and > 0$"):
        sweep_arena(desk_profile().arena, *cell)


class TestSweep:
    """A sweep is evaluation over a grid: whatever the policy, a cell's
    summary is the overall summary of evaluating it in the cell's arena."""

    @pytest.mark.parametrize("kind", ["pfm", "random", "checkpoint"])
    def test_a_cell_is_an_evaluation_of_its_arena(self, kind):
        cfg = desk_profile(seed=3)
        grid = [(5, 1.5, 1.5), (10, 1.0, 0.75), (0, 1.25, 2.0)]
        summaries = sweep(policy_of(kind, cfg), cfg, grid, episodes=4)
        expected = [evaluate_monte_carlo(policy_of(kind, cfg), cfg,
                                         sweep_arena(cfg.arena, *cell),
                                         4).overall for cell in grid]
        # repr compares every float bit for bit, nan included.
        assert repr(summaries) == repr(expected)

    def test_planner_reference_cells(self):
        # Desk cells where the planner does not saturate.
        grid = [(20, 1.0, 1.0), (30, 1.0, 1.5), (30, 1.25, 1.0)]
        cfg = desk_profile(seed=0)
        summaries = sweep(make_policy("pfm", cfg), cfg, grid, episodes=200)
        assert [(s.episodes, s.escape_pct) for s in summaries] == [
            (200, 47.0), (200, 53.5), (200, 60.0)]

    def test_written_sweep_loads_as_its_grid(self, tmp_path):
        cfg = desk_profile(seed=0)
        grid = [(0, 1.5, 1.5), (10, 1.0, 0.75), (3, 1.25, 2.0)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, grid, sweep(make_policy("pfm", cfg), cfg, grid,
                                          episodes=1))
        assert path.read_text().splitlines()[0] == (
            "n_pursuers,v_ratio,r_ratio,scope,episodes,escape_pct,"
            "mean_escape_steps,mean_reward")
        assert load_grid(path) == grid


class TestMakePolicy:
    @pytest.mark.parametrize("kind", ["iac", "sr2l"])
    def test_training_modes_are_not_policy_kinds(self, kind):
        with pytest.raises(ValueError, match="unknown policy kind"):
            make_policy(kind, desk_profile(), small_bundle())

    @pytest.mark.parametrize("kind", ["checkpoint"])
    def test_actor_kinds(self, kind):
        assert make_policy(kind, desk_profile(), small_bundle()) is not None

    def test_actor_is_not_a_kind(self):
        # Before: "actor" was a second name for "checkpoint".
        with pytest.raises(ValueError, match=r"^unknown policy kind 'actor'; "
                                             r"the kinds are checkpoint, pfm, "
                                             r"random$"):
            make_policy("actor", desk_profile(), small_bundle())

    @pytest.mark.parametrize("kind", ["checkpoint"])
    def test_actor_kinds_need_a_checkpoint(self, kind):
        with pytest.raises(ValueError,
                           match=f"policy '{kind}' needs a checkpoint"):
            make_policy(kind, desk_profile())

    @pytest.mark.parametrize("kind", ["pfm", "random"])
    def test_planner_and_random_walk_take_no_checkpoint(self, kind):
        # Before: the bundle was ignored, and the checkpoint never scored.
        with pytest.raises(ValueError,
                           match=f"policy '{kind}' takes no checkpoint"):
            make_policy(kind, desk_profile(), small_bundle())

    def test_actor_encodes_with_the_sensing_it_was_checked_against(self):
        # Before: evaluation encoded the actor's input with the config it was
        # handed, whatever make_policy had checked.  Head weights x100 make
        # the actor's action follow its input.
        bundle = PolicyBundle.create(desk_profile().sensing.n_s,
                                     TrainConfig(hidden=(8,)),
                                     np.random.default_rng(5))
        bundle.actor.weights[-1][...] *= 100.0
        cfg = desk_profile(seed=0)
        loud = replace(cfg, sensing=replace(cfg.sensing, k_s=20.0))
        policy = make_policy("checkpoint", cfg, bundle)
        records = evaluate_monte_carlo(policy, cfg, episodes=20).episodes
        assert evaluate_monte_carlo(policy, loud, episodes=20).episodes \
            == records
        # The encoding matters: the actor checked against k_s = 20 plays
        # differently.
        assert evaluate_monte_carlo(make_policy("checkpoint", loud, bundle),
                                    cfg, episodes=20).episodes != records


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
        "5,1.0",          # a value missing from the row
    ])
    def test_bad_row(self, tmp_path, row):
        path = self.write(tmp_path,
                          f"n_pursuers,v_ratio,r_ratio\n5,1.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match=r"grid\.csv:3: bad sweep cell"):
            load_grid(path)

    def test_values_are_left_to_sweep_arena(self, tmp_path):
        # A row that parses is a cell; whether it makes an arena is judged
        # where the arena is built (tests/test_cli.py runs these rows).
        path = self.write(tmp_path, "n_pursuers,v_ratio,r_ratio\n"
                                    "-1,0,1.0\n5,inf,nan\n")
        assert repr(load_grid(path)) == "[(-1, 0.0, 1.0), (5, inf, nan)]"

    def test_empty_grid(self, tmp_path):
        path = self.write(tmp_path, "n_pursuers,v_ratio,r_ratio\n")
        with pytest.raises(ValueError, match="empty sweep grid"):
            load_grid(path)


PROFILES = Path(__file__).resolve().parents[1] / "profiles"


class TestHardProfile:
    """The committed hard profile is the desk profile at the sweep cell
    (30, 1.25, 1.0), and the hard grid its four candidate cells."""

    def test_profile_is_the_desk_profile_at_a_sweep_cell(self):
        cfg = load_config(PROFILES / "hard.txt")
        desk = desk_profile()
        assert cfg.arena == sweep_arena(desk.arena, 30, 1.25, 1.0)
        assert cfg == replace(desk, arena=cfg.arena)

    def test_grid_holds_the_four_cells(self):
        assert load_grid(PROFILES / "hard_grid.csv") == [
            (30, 1.0, 1.0), (20, 1.0, 1.0), (30, 1.0, 1.5), (30, 1.25, 1.0)]

    def test_planner_escape_rate(self):
        cfg = load_config(PROFILES / "hard.txt")
        report = evaluate_monte_carlo(make_policy("pfm", cfg), cfg,
                                      episodes=100)
        assert report.overall.escape_pct == 59.0


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
    update = neural.critic_update

    def diverging(batch, nets, *args):
        nonlocal calls
        calls += 1
        if calls > log.updates:
            nets.critic.params[:] = np.nan
            raise TrainingDiverged("critic parameters became non-finite")
        return update(batch, nets, *args)

    monkeypatch.setattr(neural, "critic_update", diverging)
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


def test_clean_run_removes_a_stale_divergence_marker(monkeypatch, tmp_path):
    # Before: DIVERGED outlived the run that wrote it, beside the full log
    # of a clean run.
    cfg = desk_profile(mode="iac", episodes=2, seed=2)
    cfg = replace(cfg, train=replace(cfg.train, batch_size=8))

    def diverging(*args):
        raise TrainingDiverged("critic parameters became non-finite")

    monkeypatch.setattr(neural, "critic_update", diverging)
    _, logs = train(cfg, tmp_path)
    assert logs == [] and (tmp_path / "DIVERGED").exists()
    monkeypatch.undo()
    _, logs = train(cfg, tmp_path)
    assert len(logs) == 2
    assert not (tmp_path / "DIVERGED").exists()


class TestRunDirectory:
    """A training run always writes its run directory."""

    def test_empty_directory_rejected_before_writing(self, monkeypatch,
                                                     tmp_path):
        # Before: config.txt, train_log.csv and policy_final.cepn landed in
        # the working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="^out_dir must not be empty$"):
            train(desk_profile(mode="iac", episodes=1), "")
        assert list(tmp_path.iterdir()) == []

    def test_holds_config_log_and_due_checkpoints_only(self, tmp_path):
        cfg = desk_profile(mode="sr2l", episodes=3, seed=1)
        cfg = replace(cfg, train=replace(cfg.train, checkpoint_every=2))
        _, logs = train(cfg, tmp_path / "run")
        assert len(logs) == 3
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "checkpoint_ep00002.cepn", "config.txt", "policy_final.cepn",
            "train_log.csv"]
        assert load_config(tmp_path / "run" / "config.txt") == cfg

    def test_a_run_removes_stale_checkpoints(self, tmp_path):
        # Before: a shorter run into a longer run's directory kept its
        # checkpoint_ep00002.cepn beside the new one-row log.
        cfg = desk_profile(mode="iac", episodes=2, seed=1)
        cfg = replace(cfg, train=replace(cfg.train, checkpoint_every=1))
        train(cfg, tmp_path)
        train(replace(cfg, episodes=1), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint_ep00001.cepn", "config.txt", "policy_final.cepn",
            "train_log.csv"]
        assert len((tmp_path / "train_log.csv").read_text().splitlines()) == 2


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
        report = evaluate_monte_carlo(policy_of("checkpoint", cfg), cfg,
                                      episodes=3)
        steps = [e.steps for e in report.episodes]
        assert min(steps) < max(steps)
        assert scans == {"cast_rays": max(steps), "boundary_scan": max(steps)}

    def test_training_observes_once_per_step_and_episode_start(self, scans,
                                                                tmp_path):
        # A step's next state is the following step's state, built once.
        cfg = desk_profile(mode="sr2l", episodes=2, seed=1)
        _, logs = train(cfg, tmp_path)
        assert all(log.steps > 0 for log in logs)
        expected = sum(log.steps for log in logs) + len(logs)
        assert scans == {"cast_rays": expected, "boundary_scan": expected}

    def test_replay_casts_once_per_row(self, scans, tmp_path):
        # Row 0 and every step's row cast their min_lidar scan; the actor's
        # observation casts its own, and the final world's is never built.
        cfg = desk_profile(seed=3)
        rows = replay(policy_of("checkpoint", cfg), 11, cfg,
                      tmp_path / "trajectory.csv")
        assert rows > 1
        assert scans == {"cast_rays": rows + rows - 1,
                         "boundary_scan": rows - 1}
