"""Confinement-escape toolkit: deterministic 2-D arena, lidar-style sensing,
shaped rewards, a potential-field planner, an actor-critic evader with
planner-scaffolded training, and a Monte-Carlo evaluation harness.
Its public names are the ``__all__`` lists of its modules, all but ``cli``."""

from .config import *
from .env import *
from .harness import *
from .neural import *
from .pfm import *
from .rewards import *
from .sensing import *
from .sr2l import *

__version__ = "0.1.0"
