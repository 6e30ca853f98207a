"""Training loops, Monte-Carlo evaluation, the parameter sweep, and replay.

Seeding: every run derives independent deterministic streams from
``(run seed, purpose)`` seed sequences, so identical config + seed reproduces
every output byte.  Training consumes three streams (network init, action and
update noise, buffer sampling) plus one world-init seed per episode;
evaluation derives its episode seeds from a separate purpose tag, so training
and evaluation never share draws.

Every evaluation entry point (:func:`evaluate_monte_carlo`, :func:`sweep`,
:func:`replay`) takes a policy, which :func:`make_policy` builds from one of
``POLICY_KINDS``, and runs one lockstep loop: a block of episodes (up to
``_BLOCK_EPISODES``; replay's one) in one :class:`~cep.sr2l.EpisodeStepper`,
with an optional recorder of every step (replay's writes its rows).  An
episode leaves the batch when it ends, with the result it has on its own.  A
policy is its ``act(stepper)``, which returns one velocity command per
live episode, in the order of ``stepper.live`` (their positions in that
batch), and keeps no state between calls.  It reads what it needs from the
stepper: the arena from ``world.arena``, the planner the ``frames``; the
actor encodes its input from ``world``, one row per live episode, with the
sensing :func:`make_policy` checked it against; the random walk draws each
command from its episode's world.

A step's reward is ``RewardBreakdown.reward``, the negated composite of
:mod:`cep.rewards` (higher is better play), taken over the stepper's frames
before and after the step (the reset rule is the stepper's
``reward_frames``); its outcomes are read from ``stepper.world.outcomes``.
Training steps a one-episode stepper the same way: it samples its actor on
each world state, encoded once with :func:`~cep.sensing.observe`, and runs
the command :func:`~cep.sr2l.arbitrate` picks after weighing that proposal.

Training always writes its run directory (see :func:`train`).  An
evaluation reports records: an :class:`EvalEpisode` per episode, and an
:class:`EvalSummary` of all episodes and of each bucket of
``_BUCKET_EPISODES``.  A sweep evaluates whatever policy it is given, one
:class:`EvalSummary` per grid cell (:func:`sweep_arena` judges a cell's
values).  Each record is one row of its CSV file, its fields the columns (a
sweep row leads with the cell's grid key).
All CSV output uses 9-significant-digit floats and LF newlines.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, check_seed, save_config
from .env import ArenaConfig, OutcomeKind, WorldState, init_world
from .neural import (PolicyBundle, ReplayBuffer, TrainingDiverged,
                     actor_mean_action, forward_actor, sac_update,
                     save_checkpoint)
from .pfm import PfmPolicy
from .sensing import SensingConfig, cast_rays, objective_value, observe
from .sr2l import EpisodeStepper, arbitrate, to_velocity

__all__ = [
    "EpisodeLog",
    "EvalEpisode",
    "EvalSummary",
    "EvalReport",
    "ActorPolicy",
    "RandomWalkPolicy",
    "POLICY_KINDS",
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
# Episodes per bucket of an evaluation report.
_BUCKET_EPISODES = 100
# One name per policy, shared by make_policy and ``cep eval --policy``.
POLICY_KINDS = ("checkpoint", "pfm", "random")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _header(record_type) -> list[str]:
    """CSV header of a record dataclass: its field names in order."""
    return [f.name for f in fields(record_type)]


def _row(record) -> list[str]:
    return [_fmt(getattr(record, f.name)) for f in fields(record)]


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_records(path, record_type, records) -> None:
    _write_rows(path, _header(record_type), (_row(r) for r in records))


def _episode_seed(run_seed: int, tag: int, episode: int) -> int:
    ss = np.random.SeedSequence((run_seed, tag, episode))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# -- policies -----------------------------------------------------------------


class ActorPolicy:
    """Deterministic evaluation policy: squashed mean action, full scale,
    on the actor inputs ``sensing`` encodes (:func:`make_policy` checks that
    the actor reads them)."""

    def __init__(self, bundle: PolicyBundle, sensing: SensingConfig):
        self.bundle = bundle
        self.sensing = sensing

    def act(self, stepper: EpisodeStepper) -> list[tuple[float, float]]:
        # One 1-row forward per episode: a stacked matmul may round the last
        # bit differently.
        return [to_velocity(actor_mean_action(self.bundle.actor, obs),
                            stepper.world.arena)
                for obs in observe(stepper.world, self.sensing)]


class RandomWalkPolicy:
    """Uniform random commands in the unit box, scaled to full speed.  Each
    episode's command is drawn from a generator seeded with its world's
    ``[step_count, x, y]``, the evader position's two doubles read as
    ``uint64`` bit patterns: a function of that world alone, so a walk
    repeats byte for byte and an episode commands the same alone or in a
    batch."""

    def act(self, stepper: EpisodeStepper) -> list[tuple[float, float]]:
        w = stepper.world
        seeds = ([w.step_count, *np.array([e.x, e.y]).view(np.uint64).tolist()]
                 for e in w.evaders)
        return [to_velocity(np.random.default_rng(seed).uniform(-1.0, 1.0, 2),
                            w.arena) for seed in seeds]


def make_policy(kind: str, cfg: RunConfig, bundle: PolicyBundle | None = None):
    """The evaluation policy named ``kind``: ``"checkpoint"`` is the actor of
    ``bundle``, which must read ``cfg.sensing.n_s`` inputs, one per ray, and
    is fed what ``cfg.sensing`` encodes; ``"pfm"`` (planner) and
    ``"random"`` (random walk) take no bundle."""
    if kind not in POLICY_KINDS:
        raise ValueError(f"unknown policy kind {kind!r}; the kinds are "
                         f"{', '.join(POLICY_KINDS)}")
    if kind == "checkpoint":
        if bundle is None:
            raise ValueError(f"policy {kind!r} needs a checkpoint")
        n_in = bundle.actor.widths[0]
        if n_in != cfg.sensing.n_s:
            raise ValueError(f"the checkpoint's actor reads {n_in} inputs, but "
                             f"the config senses {cfg.sensing.n_s} rays "
                             f"(sensing.n_s)")
        return ActorPolicy(bundle, cfg.sensing)
    if bundle is not None:
        raise ValueError(f"policy {kind!r} takes no checkpoint")
    return PfmPolicy(cfg.pfm) if kind == "pfm" else RandomWalkPolicy()


# -- training -----------------------------------------------------------------


@dataclass
class EpisodeLog:
    """One row of ``train_log.csv``.  ``cum_reward`` and its per-step mean
    add up the *stored* rewards (the forward model's estimate, or the
    planner branch's label), not the realized ones; ``actor_fraction`` is
    the share of steps the actor's command ran (1.0 at 0 steps);
    ``neg_coeff_steps`` counts realized steps with ``sum_w > 1``; the
    losses are means over the episode's ``updates``, 0 with none."""
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


def train(cfg: RunConfig, out_dir: str | Path
          ) -> tuple[PolicyBundle, list[EpisodeLog]]:
    """Run ``cfg.episodes`` training episodes in IAC or SR2L mode.

    Per environment step: one actor sample on the observation
    ``cfg.sensing`` encodes (each world state encoded once), which
    :func:`~cep.sr2l.arbitrate` weighs (SR2L against one PFM planner per
    run), one stored transition, then (once the buffer holds a batch) one
    :func:`~cep.neural.sac_update` of a sampled batch: a critic step, an
    actor step and a target soft update.  A non-finite loss halts training,
    and the bundle rolls back to the last completed episode.

    Writes the run directory ``out_dir`` (an empty one raises ``ValueError``
    before anything is written): ``config.txt``, which ``load_config`` reads
    back equal to ``cfg``, ``train_log.csv``, a ``checkpoint_epNNNNN.cepn``
    every ``train.checkpoint_every`` episodes, ``policy_final.cepn``, and
    ``DIVERGED`` if training halted.  An earlier run's ``DIVERGED`` and
    checkpoints are removed first.  Returns the trained bundle and
    per-episode logs.
    """
    if not str(out_dir):
        raise ValueError("out_dir must not be empty")
    scaffold = cfg.scaffold if cfg.mode == "sr2l" else None
    planner = PfmPolicy(cfg.pfm)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    (out_path / "DIVERGED").unlink(missing_ok=True)
    for stale in out_path.glob("checkpoint_ep*.cepn"):
        stale.unlink()
    save_config(cfg, out_path / "config.txt")

    net_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 10)))
    step_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 11)))
    buffer_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0, 12)))

    bundle = PolicyBundle.create(cfg.sensing.n_s, cfg.train, net_rng)
    buffer = ReplayBuffer(cfg.train.buffer_capacity, cfg.sensing.n_s)

    logs: list[EpisodeLog] = []
    last_good = bundle.copy()
    diverged = False
    with open(out_path / "train_log.csv", "w", newline="") as log_file:
        writer = csv.writer(log_file, lineterminator="\n")
        writer.writerow(_header(EpisodeLog))
        for episode in range(cfg.episodes):
            world = init_world(cfg.arena,
                               _episode_seed(cfg.seed, _TRAIN_TAG, episode))
            stepper = EpisodeStepper(world)
            (state,) = observe(world, cfg.sensing)
            cum_reward = closs_sum = aloss_sum = 0.0
            actor_steps = neg_coeff = updates = 0
            (outcome,) = world.outcomes
            try:
                while outcome is None:
                    a_r = forward_actor(bundle.actor, state, step_rng)
                    command, action, reward, actor_ran = arbitrate(
                        stepper, a_r, scaffold, planner)
                    (realized,) = stepper.step_action([command])
                    (outcome,) = stepper.world.outcomes
                    (next_state,) = observe(stepper.world, cfg.sensing)
                    buffer.push(state, action, reward, next_state,
                                outcome is not None)
                    cum_reward += reward
                    actor_steps += actor_ran
                    if realized.sum_w > 1.0:
                        neg_coeff += 1
                    if buffer.size >= cfg.train.batch_size:
                        batch = buffer.sample(cfg.train.batch_size, buffer_rng)
                        closs, aloss = sac_update(batch, bundle, cfg.train,
                                                  step_rng)
                        closs_sum += closs
                        aloss_sum += aloss
                        updates += 1
                    state = next_state
            except TrainingDiverged:
                bundle = last_good
                diverged = True
                break

            steps = stepper.world.step_count
            logs.append(EpisodeLog(
                episode, outcome.value, steps, cum_reward,
                cum_reward / steps if steps else 0.0,
                actor_steps / steps if steps else 1.0, neg_coeff,
                closs_sum / updates if updates else 0.0,
                aloss_sum / updates if updates else 0.0, updates))
            writer.writerow(_row(logs[-1]))
            log_file.flush()
            last_good = bundle.copy()

            if (episode + 1) % cfg.train.checkpoint_every == 0:
                save_checkpoint(out_path / f"checkpoint_ep{episode + 1:05d}.cepn",
                                bundle)

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
class EvalSummary:
    """One row of ``eval_summary.csv``, its fields the file's columns:
    ``scope`` ``"all"`` or ``"bucket_<i>"``, the episode count, the escape
    percentage, the mean steps over the escaped episodes (NaN if none
    escaped) and the mean of the per-episode mean rewards."""
    scope: str
    episodes: int
    escape_pct: float
    mean_escape_steps: float
    mean_reward: float


@dataclass
class EvalReport:
    episodes: list[EvalEpisode]
    overall: EvalSummary
    buckets: list[EvalSummary]


def _summarize(scope: str, episodes: list[EvalEpisode]) -> EvalSummary:
    escaped = [e.steps for e in episodes
               if e.outcome == OutcomeKind.ESCAPED.value]
    return EvalSummary(scope, len(episodes),
                       100.0 * len(escaped) / len(episodes),
                       float(np.mean(escaped)) if escaped else float("nan"),
                       float(np.mean([e.mean_reward for e in episodes])))


def evaluate_monte_carlo(policy, cfg: RunConfig,
                         arena: ArenaConfig | None = None,
                         episodes: int | None = None) -> EvalReport:
    """Deterministic (noise-free) Monte-Carlo evaluation of one evader.

    Runs ``episodes`` episodes (``cfg.eval_episodes`` by default) in
    lockstep, ``_BLOCK_EPISODES`` at a time (see the module docstring).
    Reports the episodes' records, their summary and one summary per
    ``_BUCKET_EPISODES`` episodes.  Fewer than one episode raises
    ``ValueError``, as :class:`~cep.config.RunConfig` judges
    ``eval_episodes``.
    """
    arena = arena if arena is not None else cfg.arena
    if episodes is not None:
        cfg = replace(cfg, eval_episodes=episodes)
    n_episodes = cfg.eval_episodes
    records: list[EvalEpisode] = []
    for first in range(0, n_episodes, _BLOCK_EPISODES):
        block = range(first, min(first + _BLOCK_EPISODES, n_episodes))
        seeds = [_episode_seed(cfg.seed, _EVAL_TAG, i) for i in block]
        records += _evaluate_block(policy, arena, block, seeds)
    buckets = [_summarize(f"bucket_{i}",
                          records[start:start + _BUCKET_EPISODES])
               for i, start in enumerate(range(0, n_episodes,
                                               _BUCKET_EPISODES))]
    return EvalReport(records, _summarize("all", records), buckets)


def _evaluate_block(policy, arena: ArenaConfig, episodes: range,
                    seeds: list[int], record=None) -> list[EvalEpisode]:
    """Run ``episodes[k]`` of ``policy``, which brings its own sensing, from
    ``init_world(arena, seeds[k])``, in lockstep; their records in order.
    ``record(stepper, breakdowns)``, if given, runs
    before the first step (no breakdowns) and after each (one per episode
    live for it, in ``stepper.live`` order), before ended episodes leave."""
    world = WorldState.stack([init_world(arena, seed) for seed in seeds])
    stepper = EpisodeStepper(world)
    cum = [0.0] * len(seeds)
    records: list[EvalEpisode] = [None] * len(seeds)
    breakdowns = []
    while True:
        if record is not None:
            record(stepper, breakdowns)
        steps = stepper.world.step_count
        for k, outcome in stepper.drop_ended():
            records[k] = EvalEpisode(episodes[k], outcome.value, steps,
                                     cum[k], cum[k] / steps if steps else 0.0)
        if not stepper.live:
            return records
        breakdowns = stepper.step_action(policy.act(stepper))
        for k, bd in zip(stepper.live, breakdowns):
            cum[k] += bd.reward


# -- sweep --------------------------------------------------------------------


def sweep_arena(base: ArenaConfig, n_pursuers: int, v_ratio: float,
                r_ratio: float) -> ArenaConfig:
    """Arena for one sweep cell: pursuer speed and sensor range are set from
    the evader's via the requested ratios.  A cell that makes no valid arena
    raises ``ValueError`` naming the cell."""
    try:
        if not all(math.isfinite(r) and r > 0 for r in (v_ratio, r_ratio)):
            raise ValueError("the ratios must be finite and > 0")
        v_p_max = base.v_e_max / v_ratio
        return replace(base, n_pursuers=n_pursuers, v_p_max=v_p_max,
                       v_p_min=min(base.v_p_min, v_p_max),
                       r_p=base.r_e / r_ratio)
    except ValueError as exc:
        raise ValueError(f"sweep cell (n_pursuers, v_ratio, r_ratio) = "
                         f"{(n_pursuers, v_ratio, r_ratio)}: {exc}") from None


def sweep(policy, cfg: RunConfig, grid: list[tuple[int, float, float]],
          episodes: int | None = None) -> list[EvalSummary]:
    """Evaluate any policy over (pursuer count, speed ratio, range ratio)
    cells: the overall :class:`EvalSummary` of each cell, in grid order.
    Every cell's arena is built before any is evaluated."""
    arenas = [sweep_arena(cfg.arena, *cell) for cell in grid]
    return [evaluate_monte_carlo(policy, cfg, arena, episodes).overall
            for arena in arenas]


_GRID_COLUMNS = ("n_pursuers", "v_ratio", "r_ratio")


def load_grid(path) -> list[tuple[int, float, float]]:
    """Grid CSV with header ``n_pursuers,v_ratio,r_ratio``, per row an
    integer and two floats (:func:`sweep_arena` judges the values).  A bad
    row or a missing column raises ``ValueError`` naming the file and line."""
    grid = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for name in _GRID_COLUMNS:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"{path}:1: sweep grid has no column {name!r}")
        for row in reader:
            raw = [row[name] for name in _GRID_COLUMNS]
            try:
                grid.append((int(raw[0]), float(raw[1]), float(raw[2])))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{path}:{reader.line_num}: bad sweep cell {raw}: need an "
                    f"integer n_pursuers and two float ratios") from None
    if not grid:
        raise ValueError(f"empty sweep grid: {path}")
    return grid


# -- replay -------------------------------------------------------------------


def replay(policy, seed: int, cfg: RunConfig, out_path) -> int:
    """Run one episode of ``policy`` (see :func:`make_policy`) from
    ``init_world(cfg.arena, seed)`` and write its per-step trajectory CSV.

    Columns: step, t, evader pose/velocity, the minimum of the row's
    :func:`~cep.sensing.cast_rays` scan, detection count, reward breakdown
    (verbatim parts plus the signed reward), the frame's
    :func:`~cep.sensing.objective_value`, the running outcome tag, then
    every pursuer position.  Row 0 is the initial state.
    Returns the number of data rows written.  A negative ``seed`` raises
    ``ValueError`` before any file is opened.
    """
    check_seed(seed)
    arena = cfg.arena
    header = ["step", "t", "e_x", "e_y", "e_vx", "e_vy", "min_lidar",
              "n_detected", "sum_w", "r_d", "r_b", "reward", "objective",
              "outcome"]
    header += [f"p{i}_{c}" for i in range(arena.n_pursuers) for c in "xy"]

    def row(stepper: EpisodeStepper, breakdowns) -> None:
        w = stepper.world
        (e,) = w.evaders
        (outcome,) = w.outcomes
        (frame,) = stepper.frames
        sum_w, r_d, r_b, reward = next(((b.sum_w, b.r_d, b.r_b, b.reward)
                                        for b in breakdowns), (0.0,) * 4)
        values = [w.step_count, w.step_count * arena.dt, e.x, e.y, e.vx, e.vy,
                  float(np.min(cast_rays(w, cfg.sensing))),
                  len(frame.detections), sum_w, r_d, r_b, reward,
                  objective_value(frame, arena, cfg.sensing),
                  outcome.value if outcome else ""]
        values += w.pursuers.xy.ravel().tolist()
        writer.writerow([_fmt(v) for v in values])

    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        (episode,) = _evaluate_block(policy, arena, range(1), [seed], row)
    return episode.steps + 1


# -- CSV writers ---------------------------------------------------------------


def write_eval_episodes(path, report: EvalReport) -> None:
    _write_records(path, EvalEpisode, report.episodes)


def write_eval_summary(path, report: EvalReport) -> None:
    _write_records(path, EvalSummary, [report.overall, *report.buckets])


def write_sweep_csv(path, grid: list[tuple[int, float, float]],
                    summaries: list[EvalSummary]) -> None:
    """One row per cell: the grid key (``n_pursuers,v_ratio,r_ratio``, the
    columns :func:`load_grid` reads), then the cell's :class:`EvalSummary`
    (``scope,episodes,escape_pct,mean_escape_steps,mean_reward``)."""
    _write_rows(path, [*_GRID_COLUMNS, *_header(EvalSummary)],
                ([*map(_fmt, cell), *_row(summary)]
                 for cell, summary in zip(grid, summaries, strict=True)))
