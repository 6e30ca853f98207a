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
the one after it: ``d_i_prev`` is pursuer ``i``'s distance among the earlier
frame's detections, or ``d_i_now`` (a zero delta) when it was not detected
there, and ``d_b_prev`` is the earlier frame's ``d_b``.  At an episode's first
step no pursuer has a previous distance, but ``d_b`` does: the stepper
applies that reset rule to the frames it hands in
(:attr:`cep.sr2l.EpisodeStepper.reward_frames`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .env import ArenaConfig
from .sensing import Detection, SenseFrame

__all__ = [
    "RewardBreakdown",
    "pursuer_weight",
    "reward_pursuers",
    "reward_boundary",
    "compose_reward",
    "transition_reward",
]


@dataclass
class RewardBreakdown:
    """One step's reward parts; ``r`` recomposes exactly from the others."""

    r_d: float
    r_b: float
    sum_w: float
    m: int
    t_f: float
    r: float

    @property
    def reward(self) -> float:
        """The signed reward, ``-r``: higher means better play."""
        return -self.r


def pursuer_weight(d_i: float, r_e: float) -> float:
    """Proximity weight, 1 at contact, 0 at the edge of sensor range."""
    return 1.0 - d_i / r_e


def reward_pursuers(before: list[Detection], after: list[Detection],
                    cfg: ArenaConfig) -> tuple[float, float, int]:
    """Pursuer-interaction component of the step from detections ``before``
    to ``after``, summed over ``after`` in its (pursuer-id) order.

    A pursuer in ``after`` but not in ``before`` (first seen, or seen again
    after a gap) contributes a zero distance delta: its previous distance is
    taken to be the current one.

    Returns ``(r_d, sum of W_i, m)``.
    """
    previous = {det.pursuer_id: det.distance for det in before}
    r_d = 0.0
    sum_w = 0.0
    for det in after:
        d_now = det.distance
        d_prev = previous.get(det.pursuer_id, d_now)
        w_i = pursuer_weight(d_now, cfg.r_e)
        v_rel_max = cfg.v_e_max - det.speed * math.cos(det.theta)
        r_d += w_i * (v_rel_max * cfg.dt - (d_now - d_prev))
        sum_w += w_i
    return r_d, sum_w, len(after)


def reward_boundary(d_b_prev: float, d_b_now: float, cfg: ArenaConfig) -> float:
    """Boundary component: 0 when closing on the nearest wall at full speed,
    up to 2*v_e_max*dt when retreating at full speed."""
    return cfg.v_e_max * cfg.dt - (d_b_prev - d_b_now)


def compose_reward(r_b: float, r_d: float, sum_w: float, m: int,
                   t_f: float) -> float:
    """Combine the components; with no detections this reduces to t_f * r_b."""
    return t_f * ((1.0 - sum_w) / (1.0 + m) * r_b + r_d)


def transition_reward(before: SenseFrame, after: SenseFrame,
                      cfg: ArenaConfig) -> RewardBreakdown:
    """The reward of one realized or predicted transition from frame
    ``before`` to frame ``after``; ``.reward`` is its signed value."""
    r_d, sum_w, m = reward_pursuers(before.detections, after.detections, cfg)
    r_b = reward_boundary(before.d_b, after.d_b, cfg)
    r = compose_reward(r_b, r_d, sum_w, m, after.t_f)
    return RewardBreakdown(r_d, r_b, sum_w, m, after.t_f, r)
