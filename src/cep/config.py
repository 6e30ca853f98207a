"""Run configuration: nested dataclasses plus a flat key-value file format.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Keys mirror the RunConfig field names exactly; nested sections use dotted
keys (``arena.half_width``, ``train.lr_actor``, ...).  Values are coerced by
the type of the field they replace; the ``train.hidden`` tuple is written as
comma-separated integers.  A key may be set once per file.

A run's output directory is an argument of ``harness.train``, not a field,
so the ``config.txt`` a run writes loads back equal to its config.

Two profiles ship: ``desk`` (100x100 arena, 10 pursuers, t_max=100, 36 rays)
for fast training and the acceptance suite, and ``paper`` (200x200 arena,
30 pursuers, t_max=300, 72 rays) matching the published experiment scale.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .env import ArenaConfig, check_config, check_integer
from .neural import TrainConfig
from .pfm import PfmGains
from .sensing import SensingConfig
from .sr2l import ScaffoldConfig

__all__ = [
    "RunConfig",
    "check_seed",
    "desk_profile",
    "paper_profile",
    "load_config",
    "save_config",
    "config_to_text",
]

# The training modes; evaluation picks its policy on the command line instead.
MODES = ("iac", "sr2l")

_SECTIONS = ("arena", "sensing", "train", "scaffold", "pfm")


@dataclass(frozen=True)
class RunConfig:
    arena: ArenaConfig
    sensing: SensingConfig
    train: TrainConfig = TrainConfig()
    scaffold: ScaffoldConfig = ScaffoldConfig()
    pfm: PfmGains = PfmGains()
    mode: str = "sr2l"
    episodes: int = 150
    eval_episodes: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        check_config(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("episodes", "eval_episodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        check_seed(self.seed)


def check_seed(seed: int) -> None:
    """Reject a seed that is not an integer >= 0: a run's, or the one
    episode's of a replay."""
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def desk_profile(**overrides) -> RunConfig:
    """Small fast profile; the shipped defaults and the acceptance scale."""
    return RunConfig(ArenaConfig(half_width=50.0, half_height=50.0,
                                 spawn_half_extent=10.0, n_pursuers=10,
                                 t_max=100.0),
                     SensingConfig(n_s=36, r_b_norm=100.0), **overrides)


def paper_profile(**overrides) -> RunConfig:
    """Published experiment scale: 200x200 arena, 30 pursuers, t_max=300."""
    return RunConfig(ArenaConfig(), SensingConfig(),
                     **{"episodes": 1000, "eval_episodes": 1000, **overrides})


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _coerce(current, raw: str):
    raw = raw.strip()
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        return tuple(int(v) for v in raw.split(",")) if raw else ()
    return raw


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        if f.name in _SECTIONS:
            continue
        lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    for section in _SECTIONS:
        lines.append("")
        obj = getattr(cfg, section)
        for f in fields(obj):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(config_to_text(cfg))


def _checked(path, lines: dict[str, int], section: str, obj, values: dict):
    """``replace(obj, **values)``.  When the section's check fails, its
    message names the file and the ``line: key`` of every key the file set
    in the section, since a check may span keys (``v_p_min <= v_p_max``)."""
    try:
        return replace(obj, **values)
    except ValueError as exc:
        keys = ", ".join(f"{lineno}: {key}" for key, lineno in lines.items()
                         if key.rpartition(".")[0] == section)
        raise ValueError(f"{path}: {keys}: {exc}") from None


def load_config(path) -> RunConfig:
    """Parse a key-value file on top of the desk profile: a key the file
    does not set keeps the desk profile's value; an empty path is an error."""
    if not str(path):
        raise ValueError("config path is empty")
    cfg = desk_profile()
    # section -> field -> value the file set ("" is the top level), and
    # key -> the line that set it.
    values: dict[str, dict] = {s: {} for s in ("", *_SECTIONS)}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        section, dot, name = key.rpartition(".")
        if dot and section not in _SECTIONS:
            raise ValueError(f"{path}:{lineno}: unknown section {section!r}")
        obj = getattr(cfg, section) if dot else cfg
        if name in _SECTIONS or name not in {f.name for f in fields(obj)}:
            raise ValueError(f"{path}:{lineno}: unknown field {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: {key}: already set on line "
                             f"{lines[key]}")
        lines[key] = lineno
        try:
            values[section][name] = _coerce(getattr(obj, name), raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    top = values.pop("")
    for section, changed in values.items():
        if changed:
            top[section] = _checked(path, lines, section,
                                    getattr(cfg, section), changed)
    return _checked(path, lines, "", cfg, top)
