"""Confinement-escape toolkit: deterministic 2-D arena, lidar-style sensing,
shaped rewards, a potential-field planner, an actor-critic evader with
planner-scaffolded training, and a Monte-Carlo evaluation harness."""

from .config import RunConfig, desk_profile, load_config, paper_profile, save_config
from .env import (ArenaConfig, EvaderState, OutcomeKind, Pursuers, WorldState,
                  init_world, objective_value, step_evader, step_pursuers,
                  step_world)
from .harness import (ActorPolicy, EpisodeLog, EvalReport, RandomWalkPolicy,
                      evaluate_monte_carlo, replay, sweep, train)
from .neural import (Mlp, PolicyBundle, ReplayBuffer, TrainConfig,
                     TrainingDiverged, forward_actor, load_checkpoint,
                     save_checkpoint, soft_update)
from .pfm import PfmGains, PfmPolicy, net_force, pfm_action
from .sensing import (Detection, SenseFrame, SensingConfig, boundary_scan,
                      cast_rays, observe, sense, time_factor)
from .sr2l import EpisodeStepper, ScaffoldConfig, predict_next_state

__version__ = "0.1.0"
