"""Golden transcripts: digests of short fixed-seed runs.

The digests were recorded from the code before any refactor of the step
path; a change that is meant to keep behaviour must keep every one of them.
Regenerate a digest only for a change that is meant to alter results, and
say why in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from cep.config import desk_profile, paper_profile
from cep.harness import (evaluate_monte_carlo, make_policy, replay,
                         sweep_arena, train, write_eval_episodes)
from cep.sr2l import ScaffoldConfig

SEED = 3
EPISODES = 3
EVAL_EPISODES = 5
REPLAY_SEED = 11

GOLDEN_TRAIN = {
    "iac": {
        "actor": "19abff2015b50be83952e91a0e3981e9300ba1c0",
        "critic": "b22c431ca9a1af3b6b8939954c5cc454fad6c2f9",
        "target_critic": "85c07d08b34602070bc05abde4f7ba76101ae69e",
        "train_log.csv": "9dc8158ebcb5520be030a6c42d6cbb2b0cca49f7",
    },
    "sr2l": {
        "actor": "2e6021816d6a6c31e975bee5422c2638f56dff71",
        "critic": "1f3c3d622b9f11b7059822b457ed99ba1243014e",
        "target_critic": "75928132323d167fdf6d83f9c7837c315c0228dc",
        "train_log.csv": "de477b2844fe560553cd0f3ae4c137bb60682027",
    },
}
GOLDEN_PFM_EVAL = "057ef935a5162363c7a22dde8f3a1fb0027b8738"
GOLDEN_ACTOR_EVAL = "784fead798445ca3de234c9217f218e46f07a16f"
GOLDEN_REPLAY = "9edb3004f82f8aa6b39c5d31a342d0a5ef7abd78"
# Full-precision PFM records of evaluations at the profiles' own seed, long
# and crowded enough that pursuers lock on and capture often (the desk sweep
# cell escapes 17.5%): name -> digest.
GOLDEN_PFM_RECORDS = {
    "paper": "6869b62e8c5eb9f05d6778cca356f90b92da5ff9",
    "paper-100-pursuers": "b850c8dbf8ea48c6f03891830b15e8fea6b88d3b",
    "desk-sweep-30-1-1": "5bb0f9efe690303072500d5757957f2834ef1ea7",
}


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def run_digests(bundle, out_dir: Path) -> dict[str, str]:
    digests = {name: sha1(getattr(bundle, name).params_flat()
                          .astype("<f8").tobytes())
               for name in ("actor", "critic", "target_critic")}
    digests["train_log.csv"] = sha1((out_dir / "train_log.csv").read_bytes())
    return digests


def run_train(out_dir: Path, mode: str, **overrides):
    cfg = desk_profile(mode=mode, seed=SEED, episodes=EPISODES, **overrides)
    bundle, _ = train(cfg, out_dir)
    return bundle, run_digests(bundle, out_dir)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The IAC and SR2L runs the tests share: mode -> (bundle, digests, dir)."""
    runs = {}
    for mode in ("iac", "sr2l"):
        out = tmp_path_factory.mktemp(mode)
        bundle, digests = run_train(out, mode)
        runs[mode] = (bundle, digests, out)
    return runs


@pytest.mark.parametrize("mode", ["iac", "sr2l"])
def test_train_digests(trained, mode):
    _, digests, _ = trained[mode]
    assert digests == GOLDEN_TRAIN[mode]


def test_sr2l_open_threshold_equals_iac(trained, tmp_path):
    _, digests = run_train(tmp_path, "sr2l",
                           scaffold=ScaffoldConfig(beta=100.0))
    assert digests == trained["iac"][1]


def test_identical_runs_write_identical_bytes(trained, tmp_path):
    run_train(tmp_path, "sr2l")
    first = trained["sr2l"][2]
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (tmp_path / name).read_bytes(), name


def eval_digest(policy_kind: str, tmp_path: Path, bundle=None) -> str:
    cfg = desk_profile(seed=SEED)
    report = evaluate_monte_carlo(make_policy(policy_kind, cfg, bundle), cfg,
                                  episodes=EVAL_EPISODES)
    path = tmp_path / "eval_episodes.csv"
    write_eval_episodes(path, report)
    return sha1(path.read_bytes())


def test_pfm_eval_digest(tmp_path):
    assert eval_digest("pfm", tmp_path) == GOLDEN_PFM_EVAL


def test_actor_eval_digest(trained, tmp_path):
    bundle = trained["sr2l"][0]
    assert eval_digest("checkpoint", tmp_path, bundle) == GOLDEN_ACTOR_EVAL


def test_replay_digest(trained, tmp_path):
    path = tmp_path / "trajectory.csv"
    cfg = desk_profile(seed=SEED)
    replay(make_policy("checkpoint", cfg, trained["sr2l"][0]), REPLAY_SEED,
           cfg, path)
    assert sha1(path.read_bytes()) == GOLDEN_REPLAY


def pfm_records(name: str):
    """The profile, arena and episode count of the evaluation ``name``."""
    if name == "paper":
        cfg = paper_profile()
        return cfg, cfg.arena, 100
    if name == "paper-100-pursuers":
        cfg = paper_profile()
        return cfg, replace(cfg.arena, n_pursuers=100), 20
    cfg = desk_profile()
    return cfg, sweep_arena(cfg.arena, 30, 1.0, 1.0), 200


@pytest.mark.parametrize("name", sorted(GOLDEN_PFM_RECORDS))
def test_pfm_records_digest(name):
    cfg, arena, episodes = pfm_records(name)
    report = evaluate_monte_carlo(make_policy("pfm", cfg), cfg, arena,
                                  episodes)
    records = "".join(f"{e.outcome},{e.steps},{e.cum_reward!r}\n"
                      for e in report.episodes)
    assert sha1(records.encode()) == GOLDEN_PFM_RECORDS[name]
