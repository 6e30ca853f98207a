"""Composite shaped reward over detections, boundary progress, and time.

Component formulas (``d_i`` pursuer distances, ``d_b`` nearest-wall distance,
``V_rel_max = v_e_max - V_p_i * cos(theta_i)``)::

    W_i = 1 - d_i / r_e
    r_d = sum_i W_i * (V_rel_max * dt - (d_i_now - d_i_prev))
    r_b = v_e_max * dt - (d_b_prev - d_b_now)
    r   = t_f * [ (1 - sum_i W_i) / (1 + m) * r_b + r_d ]

Each component is a per-step shortfall from the best possible motion: exactly
0 when the evader recedes from every detected pursuer (or closes on the wall)
at full speed.  The composite ``r`` is therefore largest for the *worst*
behavior; :attr:`RewardBreakdown.reward` is ``-r``, the signed reward that
training stores and evaluation reports, so that higher means better play.
The ``(1 - sum W_i)`` coefficient is not clamped and goes negative with
several close pursuers; episode telemetry counts those steps.

The reward of a transition is a function of two frames, the one before and
the one after it, each with its detections keyed by pursuer id: ``d_i_prev``
is the distance of the earlier frame's detection of pursuer ``i``, or
``d_i_now`` (a zero delta) when it was not detected there, and ``d_b_prev``
is the earlier frame's ``d_b``.  At an episode's first step no pursuer has a
previous distance, but ``d_b`` does: the stepper applies that reset rule to
the frames it hands in (:attr:`cep.sr2l.EpisodeStepper.reward_frames`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env import ArenaConfig
from .sensing import SenseFrame

__all__ = ["RewardBreakdown", "transition_reward"]


@dataclass
class RewardBreakdown:
    """One step's reward parts; ``r`` recomposes exactly from the others."""

    r_d: float
    r_b: float
    sum_w: float
    r: float

    @property
    def reward(self) -> float:
        """The signed reward, ``-r``: higher means better play."""
        return -self.r


def transition_reward(before: SenseFrame, after: SenseFrame,
                      cfg: ArenaConfig) -> RewardBreakdown:
    """The reward of one realized or predicted transition from frame
    ``before`` to frame ``after``; ``.reward`` is its signed value.  The
    pursuer sum runs over ``after``'s detections in their ascending-id
    order, each reading its earlier distance from ``before`` by id."""
    r_d = 0.0
    sum_w = 0.0
    for i, det in after.detections.items():
        d_now = det.distance
        d_prev = before.detections.get(i, det).distance  # else a zero delta
        w_i = 1.0 - d_now / cfg.r_e
        v_rel_max = cfg.v_e_max - det.speed * math.cos(det.theta)
        r_d += w_i * (v_rel_max * cfg.dt - (d_now - d_prev))
        sum_w += w_i
    r_b = cfg.v_e_max * cfg.dt - (before.d_b - after.d_b)
    m = len(after.detections)
    r = after.t_f * ((1.0 - sum_w) / (1.0 + m) * r_b + r_d)
    return RewardBreakdown(r_d, r_b, sum_w, r)
