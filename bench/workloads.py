"""The benchmark's workloads.  Each is one call into the cep public API.

``prepare`` does the set-up a user of the API does before the call (config,
policy) and returns the call plus a function that turns the call's return
value into an :class:`Outcome`, the record the correctness checks compare.
The workload seed becomes ``cfg.seed``.  ``package`` names the cep package
to call: the checkout's ``cep`` or the frozen copy run.py compares it with.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

DEFAULT_SEED = 0
REWARD_REL_TOL = 1e-9

# Episodes per timed call.  A call takes about 0.1 to 0.4 s on one core of a
# 2-core machine: short calls follow the host's changes of speed closely, so
# that the two calls of a pair see the same host (see README.md, *Noise*).
# Training updates start once the replay buffer holds a batch of 64
# transitions, within the first episode.
EPISODES = {
    "train-sr2l-desk": 5,
    "eval-pfm-paper": 5,
    "eval-pfm-crowd": 2,
}
CROWD_PURSUERS = 100

# The frozen copy's median rate and set-up time per workload on the reference
# machine (2 cores, Python 3.11.7, numpy 2.4.6), from five 40-second runs:
# run.py scales each run's ratios to the frozen copy by them.  Fixed numbers,
# so that two runs of the same code give the same figures however fast the
# host runs at the time.
BASELINE = {
    "train-sr2l-desk": {"steps_per_s": 715.0, "setup_s": 0.22},
    "eval-pfm-paper": {"steps_per_s": 3938.0, "setup_s": 0.25},
    "eval-pfm-crowd": {"steps_per_s": 1670.0, "setup_s": 0.29},
}

# The size the benchmark's tests run at; reference.json covers it too.
TINY_EPISODES = 3


@dataclass
class Outcome:
    """What one call produced: (outcome, steps, reward) per episode, and for
    training the SHA-1 of each network's parameters."""

    episodes: list[tuple[str, int, float]]
    params_sha1: dict[str, str] | None = None

    @property
    def steps(self) -> int:
        return sum(steps for _, steps, _ in self.episodes)

    def failed(self, requested: int) -> int:
        """Requested episodes that did not finish with a finite reward."""
        bad = sum(1 for _, _, reward in self.episodes
                  if not math.isfinite(reward))
        return requested - len(self.episodes) + bad

    def to_json(self) -> dict:
        return {"episodes": [list(e) for e in self.episodes],
                "params_sha1": self.params_sha1}

    @classmethod
    def from_json(cls, data: dict) -> "Outcome":
        return cls([tuple(e) for e in data["episodes"]], data["params_sha1"])


def params_sha1(bundle) -> dict[str, str]:
    return {name: hashlib.sha1(getattr(bundle, name).params_flat()
                               .astype("<f8").tobytes()).hexdigest()
            for name in ("actor", "critic", "target_critic")}


def _train_sr2l_desk(harness, config, seed: int, episodes: int,
                     work_dir: Path):
    cfg = replace(config.desk_profile(), mode="sr2l", seed=seed,
                  episodes=episodes)

    def call():
        return harness.train(cfg, work_dir)

    def outcome(result) -> Outcome:
        bundle, logs = result
        return Outcome([(log.outcome, log.steps, log.cum_reward)
                        for log in logs], params_sha1(bundle))

    return call, outcome


def _eval_pfm(n_pursuers: int | None):
    def prepare(harness, config, seed: int, episodes: int, work_dir: Path):
        cfg = replace(config.paper_profile(), seed=seed)
        arena = cfg.arena if n_pursuers is None \
            else replace(cfg.arena, n_pursuers=n_pursuers)
        policy = harness.make_policy("pfm", cfg)

        def call():
            return harness.evaluate_monte_carlo(policy, cfg, arena, episodes)

        def outcome(report) -> Outcome:
            return Outcome([(e.outcome, e.steps, e.cum_reward)
                            for e in report.episodes])

        return call, outcome

    return prepare


_PREPARE = {
    "train-sr2l-desk": _train_sr2l_desk,
    "eval-pfm-paper": _eval_pfm(None),
    "eval-pfm-crowd": _eval_pfm(CROWD_PURSUERS),
}


def prepare(name: str, seed: int, episodes: int, work_dir: Path,
            package: str = "cep"):
    """Set up workload ``name`` on ``package``; return ``(call, outcome)``."""
    harness = importlib.import_module(f"{package}.harness")
    config = importlib.import_module(f"{package}.config")
    return _PREPARE[name](harness, config, seed, episodes, work_dir)


def differences(a: Outcome, b: Outcome) -> list[str]:
    """Why ``b`` is not the same result as ``a``: outcomes and step counts
    exactly, rewards to a relative 1e-9, parameter digests exactly."""
    problems = []
    if len(a.episodes) != len(b.episodes):
        problems.append(f"{len(a.episodes)} != {len(b.episodes)} episodes")
    for i, (ea, eb) in enumerate(zip(a.episodes, b.episodes)):
        if ea[:2] != eb[:2]:
            problems.append(f"episode {i}: {ea[:2]} != {eb[:2]}")
        elif not math.isclose(ea[2], eb[2], rel_tol=REWARD_REL_TOL):
            problems.append(f"episode {i}: reward {ea[2]!r} != {eb[2]!r}")
    if a.params_sha1 != b.params_sha1:
        problems.append(f"parameters {a.params_sha1} != {b.params_sha1}")
    return problems


def reference_differences(ref: dict, run: Outcome, requested: int) -> list[str]:
    """Compare a call of ``requested`` episodes at the default seed with the
    stored reference.

    The reference holds the episodes of a full-size call; a shorter call must
    match its prefix, since episode ``i`` does not depend on how many follow.
    Parameter digests are stored per episode count.
    """
    if requested > len(ref["episodes"]):
        return [f"reference has {len(ref['episodes'])} episodes, "
                f"run requested {requested}"]
    expected = Outcome([tuple(e) for e in ref["episodes"][:requested]],
                       (ref["params_sha1"] or {}).get(str(requested)))
    if expected.params_sha1 is None:
        # No digest stored for this episode count: compare episodes only.
        run = Outcome(run.episodes)
    return differences(expected, run)
