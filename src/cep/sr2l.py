"""Scaffolded stepping: a one-step forward model estimates the reward of the
actor's and the planner's proposals, and a threshold on their percentage gap
decides which action runs and which reward is stored.

Arbitration for one step (``r_r``/``r_p`` the estimated actor/planner rewards):

    D_f = 100 * (r_r - r_p) / |r_p + eps|
    actor branch   (D_f >= -beta, or beta >= 100): execute a_r, store r_r
    planner branch (otherwise):                    execute a_p, store
                                                   r_r - |r_p - r_r|

``beta >= 100`` forces the actor branch outright so that a fully open
threshold is exactly the unscaffolded trainer (D_f itself is unbounded below
when r_p sits near -eps, so the raw inequality alone would not guarantee it).

The forward model advances the evader by the candidate action and every
pursuer at its current velocity (no mode switches, no wall reflections),
senses the extrapolated world, and scores the step from the current frame to
that one with :func:`transition_reward`, as the realized step is scored.
Both take their earlier frame from :attr:`EpisodeStepper.reward_frames`,
where the reset rule lives: at an episode's first step no pursuer has a
previous distance.  Rewards are signed (``RewardBreakdown.reward = -r``), so
a larger estimate is a better action.
Training picks each step's action with :func:`arbitrate` and executes it with
:meth:`EpisodeStepper.step_action`, as evaluation and replay do.  With
scaffolding disabled it is the independent trainer: the actor's action runs
and the same one-step estimate is stored, so a beta=100 scaffolded run is
transcript-identical to it by construction.

The stored tuple, in both trainers, is ``(s, executed action, estimated
reward, s', done)``: the reward is the forward model's estimate, and the
realized one that :meth:`EpisodeStepper.step_action` returns is never stored
(training reads it only for its log).  The actor branch stores
``(a_r, r_r)``.  The planner branch runs only when ``r_r < r_p`` and stores
``(a_p, 2*r_r - r_p)``, a reward below both estimates.  This is how the code
reads the paper's "reflection": the actor's proposal is weighed against the
planner's before either runs, and when the scaffold takes over, the
experience pairs the planner's action with the actor's estimate less the gap
by which the actor fell short.  The critic thus sees the better action
labelled worse than either estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .env import ArenaConfig, OutcomeKind, Pursuers, WorldState, \
    check_finite, step_evader, step_world
from .neural import PolicyBundle, forward_actor
from .pfm import PfmPolicy
from .rewards import RewardBreakdown, transition_reward
from .sensing import SenseFrame, SensingConfig, cast_rays, observe, sense

__all__ = [
    "ScaffoldConfig",
    "Branch",
    "to_velocity",
    "reward_gap",
    "scaffold_select",
    "predict_next_state",
    "EpisodeStepper",
    "arbitrate",
]


@dataclass(frozen=True)
class ScaffoldConfig:
    """Threshold ``beta`` (percent) and the gap-denominator guard
    ``epsilon``.  The stored tuple always holds the executed action."""

    beta: float = 20.0
    epsilon: float = 1e-6

    def __post_init__(self) -> None:
        check_finite(self)
        if not (0.0 <= self.beta <= 100.0):
            raise ValueError("beta must be in [0, 100]")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")


class Branch(Enum):
    ACTOR = "actor"
    PLANNER = "planner"


def to_velocity(a: np.ndarray, arena: ArenaConfig) -> tuple[float, float]:
    """Scale a unit-box action to a velocity command; the observation frame
    is axis-aligned, so no rotation is involved."""
    return float(a[0]) * arena.v_e_max, float(a[1]) * arena.v_e_max


def reward_gap(r_r: float, r_p: float, eps: float) -> float:
    """Percentage gap between the actor's and planner's expected rewards."""
    denom = abs(r_p + eps)
    if denom == 0.0:
        if r_r == r_p:
            return 0.0
        return math.copysign(math.inf, r_r - r_p)
    return 100.0 * (r_r - r_p) / denom


def scaffold_select(r_r: float, r_p: float, d_f: float,
                    beta: float) -> tuple[Branch, float]:
    """Pick the branch and the reward the stored transition holds."""
    if d_f >= -beta or beta >= 100.0:
        return Branch.ACTOR, r_r
    return Branch.PLANNER, r_r - abs(r_p - r_r)


def predict_next_state(w: WorldState, frame: SenseFrame,
                       action: tuple[float, float], arena: ArenaConfig
                       ) -> float:
    """Estimate the signed reward of a candidate action in the one-world
    batch ``w``: sense the world extrapolated one step (see the module
    docstring) and score the step from ``frame``, the reward's earlier
    frame.  ``w`` and ``frame`` are untouched."""
    p = w.pursuers
    (evader,) = w.evaders
    ahead = Pursuers(p.xy + p.speed[..., None] * p.unit * arena.dt, p.speed,
                     p.unit, p.patrol_speed)
    (after,) = sense(WorldState([step_evader(evader, action, arena)], ahead,
                                w.step_count + 1), arena)
    return transition_reward(frame, after, arena).reward


class EpisodeStepper:
    """Owns a batch of episodes stepped in lockstep: the worlds and their
    frames, one entry per episode, and the lidar scans and actor inputs of
    the whole batch, one row per episode, built when read.

    ``live`` holds the batch positions of the episodes still held;
    :meth:`drop_ended` removes the finished ones, so each step works only on
    live episodes.  :meth:`step_action` executes one chosen action per
    episode and reports the realized rewards; evaluation, replay and
    training all step through it (training chooses its action with
    :func:`arbitrate`).
    """

    def __init__(self, world: WorldState, arena: ArenaConfig,
                 sensing_cfg: SensingConfig):
        self.world = world
        self.arena = arena
        self.sensing_cfg = sensing_cfg
        self.frames = sense(world, arena)
        self._lidars: np.ndarray | None = None
        self._observations: np.ndarray | None = None
        # A spawn can be terminal outright (pursuer just outside the origin
        # region within capture radius), so a runner reads world.outcomes,
        # or calls drop_ended, before the first step.
        self.live = list(range(len(world.evaders)))

    @property
    def reward_frames(self) -> list[SenseFrame]:
        """The frames the next step's rewards are taken from: :attr:`frames`,
        except at step 0, where no pursuer has a previous distance (its first
        reward sees a zero distance change) but ``d_b`` has one."""
        if self.world.step_count:
            return self.frames
        return [replace(f, detections=[]) for f in self.frames]

    @property
    def lidars(self) -> np.ndarray:
        """The lidar scans of the current worlds, one row per episode, cast
        on first read and kept until the worlds change."""
        if self._lidars is None:
            self._lidars = cast_rays(self.world, self.arena, self.sensing_cfg)
        return self._lidars

    @property
    def observations(self) -> np.ndarray:
        """The actor inputs at the current worlds, one row per episode, built
        from :attr:`lidars` on first read and kept until the worlds change."""
        if self._observations is None:
            self._observations = observe(self.world, self.lidars, self.arena,
                                         self.sensing_cfg)
        return self._observations

    def drop_ended(self) -> list[tuple[int, OutcomeKind]]:
        """Remove the episodes whose world is terminal; return their batch
        positions and outcome kinds.  They ended at ``world.step_count``."""
        outcomes = self.world.outcomes
        if outcomes.count(None) == len(outcomes):
            return []
        ended = [(k, o) for k, o in zip(self.live, outcomes) if o is not None]
        keep = [j for j, o in enumerate(outcomes) if o is None]
        self.world = self.world.take(keep)
        self.frames = [self.frames[j] for j in keep]
        self.live = [self.live[j] for j in keep]
        self._lidars = self._observations = None
        return ended

    def step_action(self, actions: list[tuple[float, float]]
                    ) -> tuple[list[OutcomeKind | None],
                               list[RewardBreakdown]]:
        """Execute one chosen action per episode: each episode's outcome and
        realized reward breakdown (its signed reward is ``.reward``)."""
        before = self.reward_frames
        self.world, outcomes = step_world(self.world, actions, self.arena)
        self.frames = sense(self.world, self.arena)
        self._lidars = self._observations = None
        return outcomes, [transition_reward(b, a, self.arena)
                          for b, a in zip(before, self.frames)]


def arbitrate(stepper: EpisodeStepper, nets: PolicyBundle,
              rng: np.random.Generator, scaffold: ScaffoldConfig | None,
              planner: PfmPolicy
              ) -> tuple[tuple[float, float], np.ndarray, float, Branch]:
    """Choose the next step of the one-episode ``stepper``: sample the actor
    and, with ``scaffold`` set, arbitrate against ``planner``.  Returns the
    command to execute, the action (unit box) and reward to store with the
    observations before and after the step, and the branch that ran."""
    (state,) = stepper.observations
    (frame,) = stepper.reward_frames
    arena = stepper.arena
    a_r = forward_actor(nets.actor, state, rng)
    command = to_velocity(a_r, arena)
    r_r = predict_next_state(stepper.world, frame, command, arena)
    if scaffold is None:
        return command, a_r, r_r, Branch.ACTOR
    (a_p,) = planner.act(stepper)
    r_p = predict_next_state(stepper.world, frame, a_p, arena)
    d_f = reward_gap(r_r, r_p, scaffold.epsilon)
    branch, reward = scaffold_select(r_r, r_p, d_f, scaffold.beta)
    if branch is Branch.PLANNER:
        return a_p, np.array(a_p) / arena.v_e_max, reward, branch
    return command, a_r, reward, branch
