"""Regenerate reference.json: the result of every workload at the default
seed, at full size and at the tiny size the tests use.

    python3 bench/make_reference.py

The reference pins behaviour.  Regenerate it only for a change that is meant
to alter results, and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, ROOT, WORKER_TIMEOUT_S, spawn

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def result(name: str, episodes: int) -> dict:
    """The outcome of one call of the checkout's cep in a fresh process."""
    args = argparse.Namespace(workload=name, seed=workloads.DEFAULT_SEED)
    return spawn(args, episodes, WORKER_TIMEOUT_S, mode="setup",
                 code="current", call=1)["outcome"]


def main() -> int:
    reference = {}
    for name, episodes in workloads.EPISODES.items():
        # The tests run shorter calls, compared with a prefix of these.
        episodes = max(episodes, workloads.TINY_EPISODES)
        full = result(name, episodes)
        entry = {"episodes": full["episodes"], "params_sha1": None}
        if full["params_sha1"] is not None:
            tiny = result(name, workloads.TINY_EPISODES)
            entry["params_sha1"] = {
                str(episodes): full["params_sha1"],
                str(workloads.TINY_EPISODES): tiny["params_sha1"]}
        reference[name] = entry
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
