"""Benchmark of the cep simulator: SR2L training and Monte-Carlo evaluation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a source checkout.  A timed call is one call into
the cep public API.  Worker processes (worker.py) run one after another, each
with one BLAS thread, so the loop is closed: the next call starts when the
last one ends.

``--trace 0`` compares the checkout's cep (``src/cep``) with a frozen copy of
it (``bench/baseline_src/cep``).  First, pairs of fresh processes, one per
side, set the workload up; the checkout's side of the first pairs also makes
the call once.  Then one process loads both sides and makes pairs of calls,
one of each side back to back, alternating which runs first, until about
``--seconds`` have passed in all.  On a shared host the speed of both sides
moves with co-tenant load, but their ratio does not, so env_steps_per_s and
setup_s are the medians over the pairs of that ratio, times the frozen
copy's figure on a reference machine (``workloads.BASELINE``).  peak_rss_mb
is the median over the checkout's fresh-process calls.

``--trace 1`` pairs an untraced and a traced call of the checkout's cep in
one process and reports the per-layer metrics of the traced call with the
median rate, and trace.overhead, the median over the pairs of the untraced
rate over the traced rate, minus 1.

Every run checks that the checkout's calls all gave the same result and, at
the default seed, that they match reference.json; the frozen copy's calls
must agree with each other too.  The last line of standard output is one
JSON object: correct, attempted, failed (episodes of the checkout's calls)
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "cep"

# Pairs of set-up processes per run, and how many of them also make the
# call on the checkout's side, for its memory and its result in a fresh
# process.
SETUP_PAIRS = 12
MEMORY_CALLS = 2
WORKER_TIMEOUT_S = 60


class BenchError(RuntimeError):
    pass


def source_sha1() -> str:
    """Digest of the cep sources, identifying the code in a checkout that is
    not a git repository."""
    h = hashlib.sha1()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spawn(args, episodes: int, timeout_s: float, **options) -> dict:
    """Run worker.py with ``options`` as flags; return its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--episodes", str(episodes)]
    for name, value in options.items():
        cmd += [f"--{name.replace('_', '-')}", str(value)]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout_s} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_pairs(args, episodes: int) -> list[tuple[dict, dict]]:
    """(checkout, frozen copy) set-up reports of fresh processes."""
    pairs = []
    for i in range(SETUP_PAIRS):
        first = i % 2
        got = {}
        for k in (first, 1 - first):
            call = int(k == 0 and i < MEMORY_CALLS)
            got[k] = spawn(args, episodes, WORKER_TIMEOUT_S, mode="setup",
                           code=("current", "baseline")[k], call=call)
        pairs.append((got[0], got[1]))
    return pairs


def call_pairs(args, episodes: int, seconds: float) -> tuple[list, dict]:
    """Pairs of call reports from one process, and its environment."""
    out = spawn(args, episodes, seconds + WORKER_TIMEOUT_S, mode="pairs",
                seconds=seconds, trace=args.trace)
    return [tuple(pair) for pair in out["pairs"]], out["env"]


def check(args, episodes: int, runs: list[dict], baseline: list[dict],
          traced: list[dict]) -> list[str]:
    """Every call of the checkout must give the first one's result, and at
    the default seed the stored reference; the frozen copy's calls must
    agree with each other; traced calls must count the same calls at every
    boundary."""
    import workloads

    def disagreements(label: str, reports: list[dict]) -> list[str]:
        outcomes = [workloads.Outcome.from_json(r["outcome"]) for r in reports]
        return [f"{label} call {i}: {p}"
                for i, other in enumerate(outcomes[1:], 1)
                for p in workloads.differences(outcomes[0], other)]

    problems = disagreements("checkout", runs)
    problems += disagreements("frozen copy", baseline)
    if args.seed == workloads.DEFAULT_SEED:
        ref = json.loads((HERE / "reference.json").read_text())[args.workload]
        problems += [f"reference: {p}" for p in workloads.reference_differences(
            ref, workloads.Outcome.from_json(runs[0]["outcome"]), episodes)]
    for i, r in enumerate(traced[1:], 1):
        for name, value in r["layers"].items():
            if name.endswith(".calls") and value != traced[0]["layers"][name]:
                problems.append(f"traced call {i}: {name} {value} != "
                                f"{traced[0]['layers'][name]}")
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def steps_per_s(report: dict) -> float:
    return report["steps"] / report["wall_s"]


def end_to_end(workload: str, setups: list[tuple[dict, dict]],
               pairs: list[tuple[dict, dict]]) -> dict:
    # Co-tenant load on the host slows calls by up to 2x, in stretches of
    # under a second to minutes, both calls of a pair alike.  Each pair's
    # ratio is scaled by the frozen copy's figure on the reference machine.
    import workloads

    ref = workloads.BASELINE[workload]
    return {
        "env_steps_per_s": metric(ref["steps_per_s"] * statistics.median(
            steps_per_s(cur) / steps_per_s(base) for cur, base in pairs),
            "steps/s"),
        "setup_s": metric(ref["setup_s"] * statistics.median(
            cur["setup_s"] / base["setup_s"] for cur, base in setups), "s"),
        "peak_rss_mb": metric(statistics.median(
            cur["peak_rss_mb"] for cur, _ in setups if "peak_rss_mb" in cur),
            "MB"),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    # Layer figures come from the traced call with the median rate.
    ranked = sorted((traced for _, traced in pairs), key=steps_per_s)
    values = dict(ranked[(len(ranked) - 1) // 2]["layers"])
    values["trace.overhead"] = statistics.median(
        steps_per_s(plain) / steps_per_s(traced)
        for plain, traced in pairs) - 1.0
    return {name: metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if not (SOURCE / "__init__.py").is_file():
        print(f"bench: no cep sources at {SOURCE}", file=sys.stderr)
        return 2
    import workloads

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.EPISODES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, default=None,
                        help="episodes per call (default: the workload's)")
    args = parser.parse_args()
    episodes = args.episodes or workloads.EPISODES[args.workload]

    begin = time.monotonic()
    try:
        setups = [] if args.trace else setup_pairs(args, episodes)
        pairs, env = call_pairs(args, episodes,
                                max(0.0, args.seconds - (time.monotonic() - begin)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    fresh = [cur for cur, _ in setups if "outcome" in cur]
    if args.trace:
        runs = [r for pair in pairs for r in pair]
        baseline, traced = [], [t for _, t in pairs]
    else:
        runs = fresh + [cur for cur, _ in pairs]
        baseline, traced = [base for _, base in pairs], []
    if any(r["steps"] == 0 for r in baseline):
        print("bench: a call of the frozen copy made no steps", file=sys.stderr)
        return 1
    problems = check(args, episodes, runs, baseline, traced)
    for p in problems:
        print(f"bench: MISMATCH {p}", file=sys.stderr)

    checkout = [r for pair in pairs for r in pair[:1 if baseline else 2]]
    info = {"workload": args.workload, "seed": args.seed,
            "episodes_per_call": episodes, "pairs": len(pairs),
            "steps_per_call": runs[0]["steps"],
            "median_steps_per_s": statistics.median(map(steps_per_s, checkout)),
            "env": dict(env, git_sha=git_sha(), source_sha1=source_sha1())}
    if baseline:
        info["median_frozen_steps_per_s"] = statistics.median(
            map(steps_per_s, baseline))
        info["median_setup_s"] = statistics.median(
            cur["setup_s"] for cur, _ in setups)
        info["median_frozen_setup_s"] = statistics.median(
            base["setup_s"] for _, base in setups)
    print(json.dumps(info))
    if traced and traced[0]["absent"]:
        print(json.dumps({"absent_boundaries": traced[0]["absent"]}))
    metrics = per_layer(pairs) if args.trace \
        else end_to_end(args.workload, setups, pairs)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
