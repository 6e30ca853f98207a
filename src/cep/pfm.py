"""Potential-field motion planner: inverse-square repulsion from detected
pursuers plus inverse-square attraction toward the nearest boundary point.

Used both as a standalone baseline evader and as the training scaffold.  The
force only sets a direction; the commanded velocity is always full speed (or
zero on a vanishing net force).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .env import ArenaConfig, check_config
from .sensing import SenseFrame

if TYPE_CHECKING:
    from .sr2l import EpisodeStepper

__all__ = ["PfmGains", "PfmPolicy", "net_force", "pfm_action"]

_FORCE_EPS = 1e-12


@dataclass(frozen=True)
class PfmGains:
    """Force gains; ``singularity_floor`` caps the 1/d^2 blow-up at contact."""

    k_p: float = 1.0
    k_b: float = 1.0
    singularity_floor: float = 0.5

    def __post_init__(self) -> None:
        check_config(self, ("k_p", "k_b", "singularity_floor"))


def net_force(frame: SenseFrame, gains: PfmGains) -> tuple[float, float]:
    """Sum of the repulsions from ``frame``'s detections, in ascending
    pursuer-id order, and the attraction along ``frame.boundary_dir`` toward
    the nearest wall, ``frame.d_b`` away.

    Distances are floored at ``singularity_floor`` before squaring.
    """
    fx = fy = 0.0
    for det in frame.detections.values():
        d = max(det.distance, gains.singularity_floor)
        mag = gains.k_p / (d * d)
        # bearing points evader -> pursuer; repulsion points the other way
        fx -= mag * math.cos(det.bearing)
        fy -= mag * math.sin(det.bearing)
    bx, by = frame.boundary_dir
    d = max(frame.d_b, gains.singularity_floor)
    mag = gains.k_b / (d * d)
    fx += mag * bx
    fy += mag * by
    return fx, fy


def pfm_action(force: tuple[float, float], cfg: ArenaConfig) -> tuple[float, float]:
    """Full-speed command along the net force; zero command on a null force."""
    fx, fy = force
    norm = math.hypot(fx, fy)
    if norm < _FORCE_EPS:
        return 0.0, 0.0
    scale = cfg.v_e_max / norm
    return fx * scale, fy * scale


class PfmPolicy:
    """Potential-field evader: the baseline policy, and the scaffold's
    planner during training."""

    def __init__(self, gains: PfmGains):
        self.gains = gains

    def act(self, stepper: EpisodeStepper) -> list[tuple[float, float]]:
        """One command per live episode, from its frame."""
        return [pfm_action(net_force(f, self.gains), stepper.world.arena)
                for f in stepper.frames]
