"""Scaffolded stepping: a one-step forward model estimates the reward of the
actor's and the planner's proposals, and a threshold on their percentage gap
decides which action runs and which reward is stored.

Arbitration for one step (``r_r``/``r_p`` the estimated actor/planner rewards):

    D_f = 100 * (r_r - r_p) / |r_p + eps|
    actor branch   (D_f >= -beta): execute a_r, store r_r
    planner branch (otherwise):    execute a_p, store r_r - |r_p - r_r|

A zero denominator (``r_p == -eps`` exactly) gives ``D_f = 0`` when
``r_r == r_p`` and an infinity of the sign of ``r_r - r_p`` otherwise.
With ``beta >= 100`` (the open threshold) :func:`arbitrate` takes the
independent trainer's return before the planner is asked: D_f is unbounded
below when ``r_p`` sits near ``-eps``, so the inequality alone would not make
the open threshold the unscaffolded trainer.

The forward model advances the evader by the candidate action and every
pursuer at its current velocity (no mode switches, no wall reflections),
senses the extrapolated world, and scores the step from the current frame to
that one with :func:`transition_reward`, as the realized step is scored.
Both take their earlier frame from :attr:`EpisodeStepper.reward_frames`,
where the reset rule lives: at an episode's first step no pursuer has a
previous distance.  Rewards are signed (``RewardBreakdown.reward = -r``), so
a larger estimate is a better action.
Training encodes each world state once with :func:`~cep.sensing.observe`,
picks the step's action from it with :func:`arbitrate` and executes it with
:meth:`EpisodeStepper.step_action`, as evaluation and replay do.  With
scaffolding disabled, or the threshold open, it is the independent trainer:
the actor's action runs and the same one-step estimate is stored.

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

import numpy as np

from .env import ArenaConfig, OutcomeKind, Pursuers, WorldState, \
    check_config, step_evader, step_world
from .neural import PolicyBundle, forward_actor
from .pfm import PfmPolicy
from .rewards import RewardBreakdown, transition_reward
from .sensing import SenseFrame, sense

__all__ = [
    "ScaffoldConfig",
    "to_velocity",
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
        check_config(self, ("epsilon",))
        if not (0.0 <= self.beta <= 100.0):
            raise ValueError(f"beta must be in [0, 100], got {self.beta}")


def to_velocity(a: np.ndarray, arena: ArenaConfig) -> tuple[float, float]:
    """Scale a unit-box action to a velocity command; the observation frame
    is axis-aligned, so no rotation is involved."""
    return float(a[0]) * arena.v_e_max, float(a[1]) * arena.v_e_max


def predict_next_state(w: WorldState, frame: SenseFrame,
                       action: tuple[float, float]) -> float:
    """Estimate the signed reward of a candidate action in the one-world
    batch ``w``: sense the world extrapolated one step (see the module
    docstring) and score the step from ``frame``, the reward's earlier
    frame.  ``w`` and ``frame`` are untouched."""
    arena, p = w.arena, w.pursuers
    (evader,) = w.evaders
    ahead = Pursuers(p.xy + p.speed[..., None] * p.unit * arena.dt, p.speed,
                     p.unit, p.patrol_speed)
    (after,) = sense(WorldState(arena, [step_evader(evader, action, arena)],
                                ahead, w.step_count + 1))
    return transition_reward(frame, after, arena).reward


class EpisodeStepper:
    """Owns a batch of episodes stepped in lockstep: the worlds, whose arena
    is ``world.arena``, and their frames, one entry per episode.  Whoever
    acts on the batch encodes the actor's input from ``world`` itself.

    ``live`` holds the batch positions of the episodes still held;
    :meth:`drop_ended` removes the finished ones, so each step works only on
    live episodes.  :meth:`step_action` executes one chosen action per
    episode and returns the realized rewards, and a step's outcomes are
    read from ``world.outcomes``; evaluation, replay and training all step
    through it (training chooses its action with :func:`arbitrate`).
    """

    def __init__(self, world: WorldState):
        self.world = world
        self.frames = sense(world)
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
        return [replace(f, detections={}) for f in self.frames]

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
        return ended

    def step_action(self, actions: list[tuple[float, float]]
                    ) -> list[RewardBreakdown]:
        """Execute one chosen action per episode and return the realized
        reward breakdowns; the outcomes are read from ``world.outcomes``."""
        before = self.reward_frames
        self.world = step_world(self.world, actions)
        self.frames = sense(self.world)
        return [transition_reward(b, a, self.world.arena)
                for b, a in zip(before, self.frames)]


def arbitrate(stepper: EpisodeStepper, state: np.ndarray, nets: PolicyBundle,
              rng: np.random.Generator, scaffold: ScaffoldConfig | None,
              planner: PfmPolicy
              ) -> tuple[tuple[float, float], np.ndarray, float, bool]:
    """Choose the next step of the one-episode ``stepper``, whose world the
    actor input ``state`` encodes: sample the actor on ``state`` and, with
    ``scaffold`` set and its threshold not open, arbitrate against
    ``planner``.  Returns the command to execute, the action (unit box) and
    reward to store with the observations before and after the step, and
    ``actor_ran``: whether the command is the actor's (False on the planner
    branch)."""
    (frame,) = stepper.reward_frames
    arena = stepper.world.arena
    a_r = forward_actor(nets.actor, state, rng)
    command = to_velocity(a_r, arena)
    r_r = predict_next_state(stepper.world, frame, command)
    if scaffold is None or scaffold.beta >= 100.0:
        return command, a_r, r_r, True
    (a_p,) = planner.act(stepper)
    r_p = predict_next_state(stepper.world, frame, a_p)
    denom = abs(r_p + scaffold.epsilon)
    if denom == 0.0:
        d_f = 0.0 if r_r == r_p else math.copysign(math.inf, r_r - r_p)
    else:
        d_f = 100.0 * (r_r - r_p) / denom
    if d_f >= -scaffold.beta:
        return command, a_r, r_r, True
    return a_p, np.array(a_p) / arena.v_e_max, r_r - abs(r_p - r_r), False
