"""Training loops, Monte-Carlo evaluation, the parameter sweep, and replay.

Seeding: every run derives independent deterministic streams from
``(run seed, purpose)`` seed sequences, so identical config + seed reproduces
every output byte.  Training consumes three streams (network init, action and
update noise, buffer sampling) plus one world-init seed per episode;
evaluation derives its episode seeds from a separate purpose tag, so training
and evaluation never share draws.

Monte-Carlo evaluation steps the episodes of a call in lockstep, up to
``_BLOCK_EPISODES`` at a time, in one :class:`~cep.sr2l.EpisodeStepper`; an
episode leaves the batch when it ends, and its result is the one it would
have on its own.  A policy acts on the batch: ``reset(episode_seeds)`` is
called with the seeds of a batch's episodes, and ``act(stepper)`` returns one
velocity command per live episode, in the order of ``stepper.live`` (their
positions in that batch).  It reads what it needs from the stepper: the
planner the ``frames``, the actor the ``observations``, one row per live
episode, built for the whole batch (from ``lidars``) when read; the random
walk keeps one generator per episode seed.

A step's reward is ``RewardBreakdown.reward``, the negated composite of
:mod:`cep.rewards` (higher is better play), taken over the stepper's frames
before and after the step (the reset rule is the stepper's
``reward_frames``).  Training steps a one-episode stepper the same way, with
the command :func:`~cep.sr2l.arbitrate` chooses, and stores the observations
before and after each step with the step's action, reward and end flag.

All CSV output uses 9-significant-digit floats and LF newlines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import RunConfig
from .env import (ArenaConfig, OutcomeKind, WorldState, init_world, max_steps,
                  objective_value)
from .neural import (PolicyBundle, ReplayBuffer, TrainingDiverged,
                     actor_mean_action, actor_update, critic_update,
                     save_checkpoint, soft_update)
from .pfm import PfmPolicy
from .sr2l import Branch, EpisodeStepper, arbitrate, to_velocity

__all__ = [
    "EpisodeLog",
    "EvalEpisode",
    "EvalBucket",
    "EvalReport",
    "SweepCell",
    "ActorPolicy",
    "PfmPolicy",
    "RandomWalkPolicy",
    "make_policy",
    "train",
    "evaluate_monte_carlo",
    "sweep_arena",
    "sweep",
    "replay",
    "load_grid",
    "write_eval_episodes",
    "write_eval_summary",
    "write_sweep_csv",
]

_TRAIN_TAG = 1
_EVAL_TAG = 2
# Episodes an evaluation steps together at most: bounds the memory a batch
# holds, whatever the episode count.
_BLOCK_EPISODES = 256


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.9g}"
    return str(value)


def _header(record_type) -> list[str]:
    """CSV header of a record dataclass: its field names in order."""
    return [f.name for f in fields(record_type)]


def _row(record) -> list[str]:
    return [_fmt(getattr(record, f.name)) for f in fields(record)]


def _write_records(path, record_type, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(record_type))
        writer.writerows(_row(r) for r in records)


def _episode_seed(run_seed: int, tag: int, episode: int) -> int:
    ss = np.random.SeedSequence((run_seed, tag, episode))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# -- policies -----------------------------------------------------------------


class ActorPolicy:
    """Deterministic evaluation policy: squashed mean action, full scale."""

    def __init__(self, bundle: PolicyBundle):
        self.bundle = bundle

    def reset(self, episode_seeds: list[int]) -> None:
        pass

    def act(self, stepper: EpisodeStepper) -> list[tuple[float, float]]:
        # One 1-row forward per episode: a stacked matmul may round the last
        # bit differently.
        return [to_velocity(actor_mean_action(self.bundle.actor, obs),
                            stepper.arena) for obs in stepper.observations]


class RandomWalkPolicy:
    """Uniform random commands in the unit box, scaled to full speed, from
    one generator per episode seed."""

    def __init__(self):
        self.rngs: list[np.random.Generator] = []

    def reset(self, episode_seeds: list[int]) -> None:
        self.rngs = [np.random.default_rng(np.random.SeedSequence((seed, 77)))
                     for seed in episode_seeds]

    def act(self, stepper: EpisodeStepper) -> list[tuple[float, float]]:
        return [to_velocity(self.rngs[k].uniform(-1.0, 1.0, size=2),
                            stepper.arena) for k in stepper.live]


def make_policy(kind: str, cfg: RunConfig, bundle: PolicyBundle | None = None):
    """The evaluation policy named ``kind``.  An actor policy needs a bundle
    whose actor reads ``cfg.sensing.n_s`` inputs, one per sensing ray."""
    if kind in ("actor", "checkpoint"):
        if bundle is None:
            raise ValueError(f"policy {kind!r} needs a checkpoint")
        n_in = bundle.actor.widths[0]
        if n_in != cfg.sensing.n_s:
            raise ValueError(f"the checkpoint's actor reads {n_in} inputs, but "
                             f"the config senses {cfg.sensing.n_s} rays "
                             f"(sensing.n_s)")
        return ActorPolicy(bundle)
    if kind == "pfm":
        return PfmPolicy(cfg.pfm)
    if kind == "random":
        return RandomWalkPolicy()
    raise ValueError(f"unknown policy kind {kind!r}")


# -- training -----------------------------------------------------------------


@dataclass
class EpisodeLog:
    episode: int
    outcome: str
    steps: int
    cum_reward: float
    mean_reward: float
    actor_fraction: float
    neg_coeff_steps: int
    mean_critic_loss: float
    mean_actor_loss: float
    updates: int


def train(cfg: RunConfig, out_dir: str | Path | None = None
          ) -> tuple[PolicyBundle, list[EpisodeLog]]:
    """Run ``cfg.episodes`` training episodes in IAC or SR2L mode.

    Per environment step: one stored transition (SR2L arbitrates against one
    PFM planner per run), then (once the buffer holds a batch) one critic
    update, one actor update, and a target soft update.
    Checkpoints are written every ``train.checkpoint_every`` episodes and at
    the end; a non-finite loss halts training and the bundle rolls back to the
    last completed episode.  Returns the trained bundle and per-episode logs.
    """
    scaffold = cfg.scaffold if cfg.mode == "sr2l" else None
    planner = PfmPolicy(cfg.pfm)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    net_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 10)))
    step_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 11)))
    buffer_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 12)))

    state_dim = cfg.sensing.n_s
    bundle = PolicyBundle.create(state_dim, cfg.train, net_rng)
    buffer = ReplayBuffer(cfg.train.buffer_capacity, state_dim)

    logs: list[EpisodeLog] = []
    log_file = None
    writer = None
    if out_path is not None:
        log_file = open(out_path / "train_log.csv", "w", newline="")
        writer = csv.writer(log_file, lineterminator="\n")
        writer.writerow(_header(EpisodeLog))

    last_good = bundle.copy()
    diverged = False
    try:
        for episode in range(cfg.episodes):
            world = init_world(cfg.arena,
                               _episode_seed(cfg.seed, _TRAIN_TAG, episode))
            stepper = EpisodeStepper(world, cfg.arena, cfg.sensing)
            cum_reward = 0.0
            actor_steps = 0
            neg_coeff = 0
            closs_sum = aloss_sum = 0.0
            updates = 0
            (outcome,) = world.outcomes
            try:
                while outcome is None:
                    (state,) = stepper.observations
                    command, action, reward, branch = arbitrate(
                        stepper, bundle, step_rng, scaffold, planner)
                    (outcome,), (realized,) = stepper.step_action([command])
                    (next_state,) = stepper.observations
                    buffer.push(state, action, reward, next_state,
                                outcome is not None)
                    cum_reward += reward
                    if branch is Branch.ACTOR:
                        actor_steps += 1
                    if realized.sum_w > 1.0:
                        neg_coeff += 1
                    if buffer.size >= cfg.train.batch_size:
                        batch = buffer.sample(cfg.train.batch_size, buffer_rng)
                        closs_sum += critic_update(batch, bundle, cfg.train, step_rng)
                        aloss_sum += actor_update(batch, bundle, cfg.train, step_rng)
                        soft_update(bundle.target_critic, bundle.critic,
                                    cfg.train.tau)
                        updates += 1
            except TrainingDiverged:
                bundle = last_good
                diverged = True
                break

            steps = stepper.world.step_count
            logs.append(EpisodeLog(
                episode, outcome.value, steps, cum_reward,
                cum_reward / steps if steps else 0.0,
                actor_steps / steps if steps else 1.0,
                neg_coeff,
                closs_sum / updates if updates else 0.0,
                aloss_sum / updates if updates else 0.0,
                updates))
            if writer is not None:
                writer.writerow(_row(logs[-1]))
                log_file.flush()
            last_good = bundle.copy()

            if out_path is not None and \
                    (episode + 1) % cfg.train.checkpoint_every == 0:
                save_checkpoint(out_path / f"checkpoint_ep{episode + 1:05d}.cepn",
                                bundle)
    finally:
        if log_file is not None:
            log_file.close()

    if out_path is not None:
        save_checkpoint(out_path / "policy_final.cepn", bundle)
        if diverged:
            (out_path / "DIVERGED").write_text(
                "training halted on non-finite loss; policy_final.cepn is the "
                "last completed episode\n")
    return bundle, logs


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalEpisode:
    episode: int
    outcome: str
    steps: int
    cum_reward: float
    mean_reward: float


@dataclass
class EvalBucket:
    bucket: int
    episodes: int
    escape_pct: float
    mean_escape_steps: float
    mean_reward: float


@dataclass
class EvalReport:
    episodes: list[EvalEpisode]
    escape_pct: float
    mean_escape_steps: float
    mean_reward: float
    buckets: list[EvalBucket]


def _summarize(episodes: list[EvalEpisode]) -> tuple[float, float, float]:
    """Escape percentage, mean steps over the escaped episodes (NaN if none
    escaped) and the mean of the per-episode mean rewards."""
    escaped = [e.steps for e in episodes
               if e.outcome == OutcomeKind.ESCAPED.value]
    return (100.0 * len(escaped) / len(episodes),
            float(np.mean(escaped)) if escaped else float("nan"),
            float(np.mean([e.mean_reward for e in episodes])))


def _bucketize(episodes: list[EvalEpisode], width: int = 100) -> list[EvalBucket]:
    chunks = [episodes[start:start + width]
              for start in range(0, len(episodes), width)]
    return [EvalBucket(i, len(chunk), *_summarize(chunk))
            for i, chunk in enumerate(chunks)]


def evaluate_monte_carlo(policy, cfg: RunConfig,
                         arena: ArenaConfig | None = None,
                         episodes: int | None = None) -> EvalReport:
    """Deterministic (noise-free) Monte-Carlo evaluation of one evader.

    The episodes run in lockstep, ``_BLOCK_EPISODES`` at a time (see the
    module docstring).  Reports escape percentage, mean steps over escaped
    episodes, the mean of per-episode mean rewards (realized, signed), and
    per-100-episode buckets.  Fewer than one episode raises ``ValueError``.
    """
    arena = arena if arena is not None else cfg.arena
    n_episodes = episodes if episodes is not None else cfg.eval_episodes
    if n_episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {n_episodes}")
    records: list[EvalEpisode] = []
    for first in range(0, n_episodes, _BLOCK_EPISODES):
        block = range(first, min(first + _BLOCK_EPISODES, n_episodes))
        records += _evaluate_block(policy, cfg, arena, block)
    return EvalReport(records, *_summarize(records), _bucketize(records))


def _evaluate_block(policy, cfg: RunConfig, arena: ArenaConfig,
                    episodes: range) -> list[EvalEpisode]:
    """Run ``episodes`` in lockstep; their records in episode order."""
    seeds = [_episode_seed(cfg.seed, _EVAL_TAG, i) for i in episodes]
    world = WorldState.stack([init_world(arena, seed) for seed in seeds])
    stepper = EpisodeStepper(world, arena, cfg.sensing)
    policy.reset(seeds)
    cum = [0.0] * len(seeds)
    records: list[EvalEpisode] = [None] * len(seeds)
    while True:
        steps = stepper.world.step_count
        for k, outcome in stepper.drop_ended():
            records[k] = EvalEpisode(episodes[k], outcome.value, steps,
                                     cum[k], cum[k] / steps if steps else 0.0)
        if not stepper.live:
            return records
        _, breakdowns = stepper.step_action(policy.act(stepper))
        for k, bd in zip(stepper.live, breakdowns):
            cum[k] += bd.reward


# -- sweep --------------------------------------------------------------------


@dataclass
class SweepCell:
    n_pursuers: int
    v_ratio: float
    r_ratio: float
    escape_pct: float
    mean_escape_steps: float
    episodes: int


def sweep_arena(base: ArenaConfig, n_pursuers: int, v_ratio: float,
                r_ratio: float) -> ArenaConfig:
    """Arena for one sweep cell: pursuer speed and sensor range are set from
    the evader's via the requested ratios.  A cell that makes no valid arena
    raises ``ValueError`` naming the cell."""
    v_p_max = base.v_e_max / v_ratio
    try:
        return replace(base, n_pursuers=n_pursuers, v_p_max=v_p_max,
                       v_p_min=min(base.v_p_min, v_p_max),
                       r_p=base.r_e / r_ratio)
    except ValueError as exc:
        raise ValueError(f"sweep cell (n_pursuers, v_ratio, r_ratio) = "
                         f"{(n_pursuers, v_ratio, r_ratio)}: {exc}") from None


def sweep(bundle: PolicyBundle, cfg: RunConfig,
          grid: list[tuple[int, float, float]],
          episodes: int | None = None) -> list[SweepCell]:
    """Evaluate a trained policy over (pursuer count, speed ratio, range
    ratio) cells.  Every cell's arena is built before any is evaluated."""
    policy = make_policy("actor", cfg, bundle)
    arenas = [sweep_arena(cfg.arena, *cell) for cell in grid]
    cells = []
    n_eval = episodes if episodes is not None else cfg.eval_episodes
    for cell, arena in zip(grid, arenas):
        report = evaluate_monte_carlo(policy, cfg, arena=arena,
                                      episodes=n_eval)
        cells.append(SweepCell(*cell, report.escape_pct,
                               report.mean_escape_steps, n_eval))
    return cells


_GRID_COLUMNS = ("n_pursuers", "v_ratio", "r_ratio")


def load_grid(path) -> list[tuple[int, float, float]]:
    """Grid CSV with header ``n_pursuers,v_ratio,r_ratio``: per row an
    integer pursuer count >= 0 and two finite ratios > 0.  A missing column
    or a bad row raises ``ValueError`` naming the file and the line."""
    grid = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in _GRID_COLUMNS:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}:1: sweep grid has no column {name!r}")
        for row in reader:
            raw = [row[name] for name in _GRID_COLUMNS]
            try:
                n, v_ratio, r_ratio = int(raw[0]), float(raw[1]), float(raw[2])
                valid = n >= 0 and all(math.isfinite(r) and r > 0
                                       for r in (v_ratio, r_ratio))
            except (TypeError, ValueError):
                valid = False
            if not valid:
                raise ValueError(
                    f"{path}:{reader.line_num}: bad sweep cell {raw}: need an "
                    f"integer n_pursuers >= 0 and finite ratios > 0")
            grid.append((n, v_ratio, r_ratio))
    if not grid:
        raise ValueError(f"empty sweep grid: {path}")
    return grid


# -- replay -------------------------------------------------------------------


def replay(bundle: PolicyBundle, seed: int, cfg: RunConfig, out_path) -> int:
    """Run one deterministic episode and write a per-step trajectory CSV.

    Columns: step, t, evader pose/velocity, lidar minimum, detection count,
    reward breakdown (verbatim parts plus the signed reward), the running
    outcome tag, then every pursuer position.  Row 0 is the initial state.
    Returns the number of data rows written.  A negative ``seed`` raises
    ``ValueError`` before any file is opened.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    arena = cfg.arena
    stepper = EpisodeStepper(init_world(arena, seed), arena, cfg.sensing)
    policy = make_policy("actor", cfg, bundle)
    policy.reset([seed])

    header = ["step", "t", "e_x", "e_y", "e_vx", "e_vy", "min_lidar",
              "n_detected", "sum_w", "r_d", "r_b", "reward", "objective",
              "outcome"]
    for i in range(arena.n_pursuers):
        header += [f"p{i}_x", f"p{i}_y"]

    def row(reward_parts) -> list[str]:
        w = stepper.world
        (e,) = w.evaders
        (outcome,) = w.outcomes
        detections = stepper.frames[0].detections
        r_d, r_b, sum_w, reward = reward_parts
        obj = objective_value((e.x, e.y), [d.distance for d in detections],
                              arena, cfg.sensing.r_b_norm)
        values = [w.step_count, w.step_count * arena.dt, e.x, e.y, e.vx, e.vy,
                  float(np.min(stepper.lidars[0])),
                  len(detections), sum_w,
                  r_d, r_b, reward, obj, outcome.value if outcome else ""]
        values += w.pursuers.xy.ravel().tolist()
        return [_fmt(v) for v in values]

    rows = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerow(row((0.0, 0.0, 0.0, 0.0)))
        rows += 1
        (outcome,) = stepper.world.outcomes
        while outcome is None:
            (outcome,), (bd,) = stepper.step_action(policy.act(stepper))
            writer.writerow(row((bd.r_d, bd.r_b, bd.sum_w, bd.reward)))
            rows += 1
    assert rows <= max_steps(arena) + 1
    return rows


# -- CSV writers ---------------------------------------------------------------


def write_eval_episodes(path, report: EvalReport) -> None:
    _write_records(path, EvalEpisode, report.episodes)


def write_eval_summary(path, report: EvalReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scope", "episodes", "escape_pct",
                         "mean_escape_steps", "mean_reward"])
        writer.writerow(["all", len(report.episodes), _fmt(report.escape_pct),
                         _fmt(report.mean_escape_steps), _fmt(report.mean_reward)])
        for b in report.buckets:
            writer.writerow([f"bucket_{b.bucket}", b.episodes,
                             _fmt(b.escape_pct), _fmt(b.mean_escape_steps),
                             _fmt(b.mean_reward)])


def write_sweep_csv(path, cells: list[SweepCell]) -> None:
    _write_records(path, SweepCell, cells)
