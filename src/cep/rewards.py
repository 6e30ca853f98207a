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
behavior; the harness flips its sign by default (``reward_sign = -1``) so that
higher logged reward means better play, while these functions stay exact.
The ``(1 - sum W_i)`` coefficient is not clamped and goes negative with
several close pursuers; episode telemetry counts those steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .env import ArenaConfig
from .sensing import Detection

__all__ = [
    "DetectionHistory",
    "RewardState",
    "RewardBreakdown",
    "pursuer_weight",
    "reward_pursuers",
    "reward_boundary",
    "compose_reward",
]

# Map pursuer_id -> distance at the previous step; cleared at episode reset.
DetectionHistory = dict[int, float]


@dataclass
class RewardBreakdown:
    """One step's reward parts; ``r`` recomposes exactly from the others."""

    r_d: float
    r_b: float
    sum_w: float
    m: int
    t_f: float
    r: float


@dataclass
class RewardState:
    """Per-episode mutable reward bookkeeping owned by one runner."""

    history: DetectionHistory = field(default_factory=dict)
    d_b_prev: float = 0.0

    def copy(self) -> "RewardState":
        return RewardState(dict(self.history), self.d_b_prev)


def pursuer_weight(d_i: float, r_e: float) -> float:
    """Proximity weight, 1 at contact, 0 at the edge of sensor range."""
    return 1.0 - d_i / r_e


def reward_pursuers(detections: list[Detection], hist: DetectionHistory,
                    cfg: ArenaConfig) -> tuple[float, float, int]:
    """Pursuer-interaction component; updates ``hist`` in place.

    A pursuer first seen this step contributes a zero distance delta
    (its previous distance is taken to be the current one).  Entries for
    pursuers no longer detected are dropped, so a disappear/reappear also
    resets the delta.

    Returns ``(r_d, sum of W_i, m)``.
    """
    r_d = 0.0
    sum_w = 0.0
    new_hist: DetectionHistory = {}
    for det in detections:
        d_now = det.distance
        d_prev = hist.get(det.pursuer_id, d_now)
        w_i = pursuer_weight(d_now, cfg.r_e)
        v_rel_max = cfg.v_e_max - det.speed * math.cos(det.theta)
        r_d += w_i * (v_rel_max * cfg.dt - (d_now - d_prev))
        sum_w += w_i
        new_hist[det.pursuer_id] = d_now
    hist.clear()
    hist.update(new_hist)
    return r_d, sum_w, len(detections)


def reward_boundary(d_b_prev: float, d_b_now: float, cfg: ArenaConfig) -> float:
    """Boundary component: 0 when closing on the nearest wall at full speed,
    up to 2*v_e_max*dt when retreating at full speed."""
    return cfg.v_e_max * cfg.dt - (d_b_prev - d_b_now)


def compose_reward(r_b: float, r_d: float, sum_w: float, m: int,
                   t_f: float) -> float:
    """Combine the components; with no detections this reduces to t_f * r_b."""
    return t_f * ((1.0 - sum_w) / (1.0 + m) * r_b + r_d)


def transition_reward(detections: list[Detection], d_b_now: float, t_f: float,
                      state: RewardState, cfg: ArenaConfig,
                      sign: float = -1.0) -> tuple[RewardBreakdown, float]:
    """Evaluate one realized or predicted transition and advance ``state``.

    Returns the verbatim breakdown and the signed reward the harness trains
    and reports on (``sign * r``).
    """
    r_d, sum_w, m = reward_pursuers(detections, state.history, cfg)
    r_b = reward_boundary(state.d_b_prev, d_b_now, cfg)
    state.d_b_prev = d_b_now
    r = compose_reward(r_b, r_d, sum_w, m, t_f)
    return RewardBreakdown(r_d, r_b, sum_w, m, t_f, r), sign * r
