"""A tiny-size run of each workload, traced and untraced, through run.py;
the arithmetic of the end-to-end metrics; the frozen copy of cep."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = workloads.DEFAULT_SEED):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--episodes", str(workloads.TINY_EPISODES)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.EPISODES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == layers.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.EPISODES))
def test_untraced_run_emits_end_to_end_metrics(workload):
    out = _run(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] >= 3 * workloads.TINY_EPISODES
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.EPISODES))
def test_traced_run_emits_per_layer_metrics(workload):
    out = _run(workload, trace=1, seed=1)
    assert out["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["harness.iter_us_p50"] > 0
    assert 0 < metrics["harness.self_share"] < 1
    if workload.startswith("train"):
        assert metrics["neural.critic_update.calls"] > 0
        assert metrics["sensing.sense.per_step"] > 2.9
    else:
        assert metrics["neural.critic_update.calls"] == 0
        assert metrics["sensing.sense.useful_share"] == 1.0


def test_end_to_end_scales_the_median_pair_ratio():
    import run

    ref = workloads.BASELINE["eval-pfm-paper"]

    def call(steps, wall_s):
        return {"steps": steps, "wall_s": wall_s}

    # Ratios 1.0, 2.0 and 0.5: the host's speed cancels within each pair.
    pairs = [(call(100, 1.0), call(100, 1.0)), (call(100, 0.25), call(100, 0.5)),
             (call(100, 4.0), call(100, 2.0))]
    setups = [({"setup_s": 0.3, "peak_rss_mb": 40.0}, {"setup_s": 0.2}),
              ({"setup_s": 0.2}, {"setup_s": 0.2}),
              ({"setup_s": 0.1, "peak_rss_mb": 42.0}, {"setup_s": 0.2})]
    out = run.end_to_end("eval-pfm-paper", setups, pairs)
    assert out["env_steps_per_s"]["value"] == ref["steps_per_s"]
    assert out["setup_s"]["value"] == ref["setup_s"]
    assert out["peak_rss_mb"]["value"] == 41.0


def test_frozen_copy_loads_beside_the_checkout():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import worker;"
         " import cep; worker.load_frozen(); import cep_frozen.harness as h;"
         " assert h.__file__.startswith(sys.argv[3]);"
         " assert not cep.__file__.startswith(sys.argv[3])",
         str(BENCH), str(ROOT / "src"), str(BENCH / "baseline_src")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
