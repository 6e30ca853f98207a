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
The independent trainer shares this machinery with scaffolding disabled: it
executes the actor's action and stores the same one-step reward estimate, so
a beta=100 scaffolded run is transcript-identical to it by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .env import ArenaConfig, EpisodeOutcome, Pursuers, WorldState, \
    check_finite, step_evader, step_world
from .neural import PolicyBundle, forward_actor
from .pfm import PfmGains, PfmPolicy
from .rewards import RewardBreakdown, transition_reward
from .sensing import SenseFrame, SensingConfig, cast_rays, observe, sense

__all__ = [
    "ScaffoldConfig",
    "Branch",
    "StepResult",
    "to_velocity",
    "reward_gap",
    "scaffold_select",
    "predict_next_state",
    "EpisodeStepper",
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


@dataclass
class StepResult:
    """What training reads of one environment step: the stored action (in
    the unit box) and reward, the branch that ran, the episode's outcome
    (None while it runs) and the realized reward's breakdown.  The stored
    states are the stepper's observations before and after the step."""

    action: np.ndarray
    reward: float
    branch: Branch
    outcome: EpisodeOutcome | None
    realized: RewardBreakdown


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
    n = w.step_count + 1
    (evader,) = w.evaders
    ahead = Pursuers(p.xy + p.speed[..., None] * p.unit * arena.dt, p.speed,
                     p.unit, p.patrol_speed)
    (after,) = sense(WorldState([step_evader(evader, action, arena)], ahead,
                                n * arena.dt, n), arena)
    return transition_reward(frame, after, arena).reward


class EpisodeStepper:
    """Owns a batch of episodes stepped in lockstep: the worlds and their
    frames, one entry per episode, and the lidar scans and actor inputs of
    the whole batch, one row per episode, built when read.

    ``live`` holds the batch positions of the episodes still held;
    :meth:`drop_ended` removes the finished ones, so each step works only on
    live episodes.  Evaluation and replay use
    :meth:`step_action`, which executes one chosen action per episode and
    reports the realized rewards.  Training drives a one-episode stepper
    through :meth:`step`: with ``scaffold`` set it runs the full arbitration
    against ``planner``, the PFM policy with ``gains``; without it the step
    is the independent trainer (actor action, estimated reward stored).
    """

    def __init__(self, world: WorldState, arena: ArenaConfig,
                 sensing_cfg: SensingConfig, scaffold: ScaffoldConfig | None,
                 gains: PfmGains | None = None):
        self.world = world
        self.arena = arena
        self.sensing_cfg = sensing_cfg
        self.scaffold = scaffold
        self.planner = PfmPolicy(gains if gains is not None else PfmGains())
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

    def drop_ended(self) -> list[tuple[int, EpisodeOutcome]]:
        """Remove the episodes whose world is terminal; return their batch
        positions and outcomes."""
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

    def _advance_world(self, actions: list[tuple[float, float]]
                       ) -> tuple[list[EpisodeOutcome | None],
                                  list[RewardBreakdown]]:
        before = self.reward_frames
        self.world, outcomes = step_world(self.world, actions, self.arena)
        self.frames = sense(self.world, self.arena)
        self._lidars = self._observations = None
        return outcomes, [transition_reward(b, a, self.arena)
                          for b, a in zip(before, self.frames)]

    def step(self, nets: PolicyBundle, rng: np.random.Generator) -> StepResult:
        """One training step of a one-episode stepper: sample the actor,
        arbitrate, act; the transition to store is the observation before,
        the result's action and reward, and the observation after."""
        (state,) = self.observations
        (frame,) = self.reward_frames
        a_r = forward_actor(nets.actor, state, rng)
        a_r_env = to_velocity(a_r, self.arena)

        r_r = predict_next_state(self.world, frame, a_r_env, self.arena)
        branch = Branch.ACTOR
        stored_reward = r_r
        env_action = a_r_env
        stored_action = a_r
        if self.scaffold is not None:
            (a_p_env,) = self.planner.act(self)
            r_p = predict_next_state(self.world, frame, a_p_env, self.arena)
            d_f = reward_gap(r_r, r_p, self.scaffold.epsilon)
            branch, stored_reward = scaffold_select(r_r, r_p, d_f,
                                                    self.scaffold.beta)
            if branch is Branch.PLANNER:
                env_action = a_p_env
                stored_action = np.array(a_p_env) / self.arena.v_e_max

        (outcome,), (realized,) = self._advance_world([env_action])
        return StepResult(stored_action, stored_reward, branch, outcome,
                          realized)

    def step_action(self, actions: list[tuple[float, float]]
                    ) -> tuple[list[EpisodeOutcome | None],
                               list[RewardBreakdown]]:
        """Execute one externally chosen action per episode (evaluation and
        replay path): each episode's outcome and realized reward breakdown
        (its signed reward is ``.reward``)."""
        return self._advance_world(actions)
