"""A benchmark process, started by run.py with one JSON report as the last
line of its standard output.  Two modes:

``--mode setup`` sets up a workload in this fresh process, on the checkout's
cep (``--code current``, from ``src/``) or on the frozen copy
(``--code baseline``, from ``bench/baseline_src/``), and reports the set-up
time, counted from the monotonic clock reading run.py took just before it
started the process.  With ``--call 1`` it then makes the timed call once and
reports its result and the process's peak memory.

``--mode pairs`` makes pairs of timed calls, back to back, until about
``--seconds`` have passed.  With ``--trace 0`` a pair is a call of the
checkout's cep and the same call of the frozen copy, loaded side by side as
``cep`` and ``cep_frozen``; with ``--trace 1`` it is an untraced and a traced
call of the checkout's cep, the layer boundaries wrapped during the traced
one.  Which call of a pair runs first alternates.  The spans of the first
traced call are written to ``.bench_work/spans-<workload>.csv``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib.util
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SOURCES = {"current": ROOT / "src", "baseline": HERE / "baseline_src"}
FROZEN = "cep_frozen"
MIN_PAIRS = 3


def write_spans(path: Path, rec) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["span", "boundary", "start_ns", "end_ns", "parent",
                         "episode"])
        for i, s in enumerate(rec.spans):
            writer.writerow([i, rec.names[s.boundary], s.start_ns, s.end_ns,
                             s.parent, s.episode])


def load_frozen() -> None:
    """Import the frozen copy of cep as ``cep_frozen``.  Its modules import
    one another relatively, so it runs unchanged under that name."""
    path = SOURCES["baseline"] / "cep"
    spec = importlib.util.spec_from_file_location(
        FROZEN, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[FROZEN] = module
    spec.loader.exec_module(module)


def timed_call(call, to_outcome, episodes: int) -> dict:
    """Make one timed call; a call that raises fails its episodes."""
    import workloads

    start = time.perf_counter_ns()
    try:
        result = call()
    except Exception:
        traceback.print_exc()
        result = None
    wall_ns = time.perf_counter_ns() - start
    outcome = to_outcome(result) if result is not None \
        else workloads.Outcome([])
    return {"wall_s": wall_ns / 1e9, "steps": outcome.steps,
            "attempted": episodes, "failed": outcome.failed(episodes),
            "outcome": outcome.to_json()}


def setup_mode(args, work_dir: Path) -> dict:
    import workloads

    call, to_outcome = workloads.prepare(args.workload, args.seed,
                                         args.episodes, work_dir)
    report = {"setup_s": (time.monotonic_ns() - args.spawned_ns) / 1e9}
    if args.call:
        report.update(timed_call(call, to_outcome, args.episodes))
        report["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return report


def pairs_mode(args, work_dir: Path) -> dict:
    import layers
    import spans
    import workloads

    if args.trace:
        packages = ["cep", "cep"]
    else:
        load_frozen()
        packages = ["cep", FROZEN]
    sides = []
    for k, package in enumerate(packages):
        side_dir = work_dir / str(k)
        side_dir.mkdir()
        sides.append(workloads.prepare(args.workload, args.seed,
                                       args.episodes, side_dir, package))

    def run_side(k: int) -> dict:
        call, to_outcome = sides[k]
        if not (args.trace and k == 1):
            return timed_call(call, to_outcome, args.episodes)
        rec = spans.Recorder()
        with spans.installed(rec, layers.BOUNDARIES) as absent:
            report = timed_call(rec.timed(layers.HARNESS, call), to_outcome,
                                args.episodes)
        report["layers"] = layers.layer_metrics(rec, report["steps"])
        report["absent"] = absent
        if not os.path.exists(spans_path):
            write_spans(spans_path, rec)
        return report

    spans_path = WORK / f"spans-{args.workload}.csv"
    if args.trace and spans_path.exists():
        spans_path.unlink()
    pairs = []
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        # Stop once one more pair would more likely end past the time than
        # before it.
        if len(pairs) >= MIN_PAIRS and \
                elapsed + elapsed / len(pairs) / 2 > args.seconds:
            break
        first = len(pairs) % 2
        got = {k: run_side(k) for k in (first, 1 - first)}
        pairs.append([got[0], got[1]])
    return {"pairs": pairs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "pairs"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--episodes", type=int, required=True)
    parser.add_argument("--code", choices=sorted(SOURCES), default="current")
    parser.add_argument("--call", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SOURCES[args.code]))
    import numpy as np

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.mode == "setup":
            report = setup_mode(args, work_dir)
        else:
            report = pairs_mode(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report["env"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
