"""The cep layer boundaries the traced run times, and its per-layer metrics.

Layers are the modules ``env``, ``sensing``, ``rewards``, ``pfm``,
``neural``, ``sr2l`` and ``harness``.  Each timed boundary reports
``<boundary>.calls``, ``<boundary>.us_p50`` (median microseconds per call)
and ``<boundary>.self_share`` (self time over the wall time of the call).
``harness`` is the timed API call itself, so its self time is the loop
overhead outside every other boundary.
"""

from __future__ import annotations

from spans import Boundary, Recorder, has_ancestor, percentile, self_times

HARNESS = "harness"

BOUNDARIES = [
    Boundary("sr2l.predict_next_state", "sr2l", "predict_next_state"),
    Boundary("sr2l.EpisodeStepper.step", "sr2l", "EpisodeStepper.step"),
    Boundary("sr2l.EpisodeStepper.step_action", "sr2l",
             "EpisodeStepper.step_action"),
    Boundary("sr2l.EpisodeStepper.init", "sr2l", "EpisodeStepper.__init__"),
    Boundary("neural.critic_update", "neural", "critic_update"),
    Boundary("neural.actor_update", "neural", "actor_update"),
    Boundary("neural.soft_update", "neural", "soft_update"),
    Boundary("neural.forward_actor", "neural", "forward_actor"),
    Boundary("neural.ReplayBuffer.push", "neural", "ReplayBuffer.push"),
    Boundary("neural.ReplayBuffer.sample", "neural", "ReplayBuffer.sample"),
    Boundary("neural.PolicyBundle.copy", "neural", "PolicyBundle.copy"),
    Boundary("neural.save_checkpoint", "neural", "save_checkpoint"),
    Boundary("env.init_world", "env", "init_world", starts_episode=True),
    Boundary("env.step_world", "env", "step_world"),
    Boundary("env.check_outcome", "env", "check_outcome"),
    # About 3 us per call: timing it would distort it, so it is only counted.
    Boundary("env.step_pursuer", "env", "step_pursuer", timed=False),
    Boundary("sensing.sense", "sensing", "sense"),
    Boundary("sensing.cast_rays", "sensing", "cast_rays"),
    Boundary("sensing.boundary_scan", "sensing", "boundary_scan"),
    Boundary("rewards.transition_reward", "rewards", "transition_reward"),
    Boundary("pfm.net_force", "pfm", "net_force"),
]

_STEPS = ("sr2l.EpisodeStepper.step", "sr2l.EpisodeStepper.step_action")

# (name, unit, better) for every metric of a traced run, in output order.
PER_LAYER = [
    (f"{b.name}.{suffix}", unit, "lower")
    for b in BOUNDARIES
    for suffix, unit in ((("calls", "count"), ("us_p50", "us"),
                          ("self_share", "ratio")) if b.timed
                         else (("calls", "count"),))
] + [
    ("env.check_outcome.per_step", "calls/step", "lower"),
    ("sensing.sense.per_step", "calls/step", "lower"),
    ("sensing.sense.useful_share", "ratio", "higher"),
    ("harness.self_share", "ratio", "lower"),
    ("harness.iter_us_p50", "us", "lower"),
    ("harness.iter_us_p90", "us", "lower"),
    ("harness.iter_us_p99", "us", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def layer_metrics(rec: Recorder, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced call (all but ``trace.overhead``).

    A boundary never called, or absent from the code, reports zeros.
    """
    spans = rec.spans
    selfs = self_times(spans)
    ids = {name: i for i, name in enumerate(rec.names)}
    root = next(i for i, s in enumerate(spans)
                if s.boundary == ids[HARNESS])
    wall = spans[root].end_ns - spans[root].start_ns

    durations: dict[int, list[int]] = {i: [] for i in ids.values()}
    self_ns = dict.fromkeys(ids.values(), 0)
    for s, own in zip(spans, selfs):
        durations[s.boundary].append(s.end_ns - s.start_ns)
        self_ns[s.boundary] += own

    out: dict[str, float] = {}
    for b in BOUNDARIES:
        if not b.timed:
            out[f"{b.name}.calls"] = rec.counts.get(b.name, 0)
            continue
        bid = ids.get(b.name)
        durs = durations[bid] if bid is not None else []
        out[f"{b.name}.calls"] = len(durs)
        out[f"{b.name}.us_p50"] = percentile(durs, 50) / 1e3
        out[f"{b.name}.self_share"] = \
            self_ns[bid] / wall if bid is not None else 0.0

    per_step = 1.0 / steps if steps else 0.0
    out["env.check_outcome.per_step"] = out["env.check_outcome.calls"] * per_step
    out["sensing.sense.per_step"] = out["sensing.sense.calls"] * per_step
    sense, predict = ids.get("sensing.sense"), ids.get("sr2l.predict_next_state")
    sense_spans = [i for i, s in enumerate(spans) if s.boundary == sense]
    useful = [i for i in sense_spans
              if predict is None or not has_ancestor(spans, i, predict)]
    out["sensing.sense.useful_share"] = \
        len(useful) / len(sense_spans) if sense_spans else 0.0
    out["harness.self_share"] = selfs[root] / wall

    step_ids = {ids[n] for n in _STEPS if n in ids}
    starts = [(s.episode, s.start_ns) for s in spans if s.boundary in step_ids]
    iters = [b[1] - a[1] for a, b in zip(starts, starts[1:]) if a[0] == b[0]]
    for q in (50, 90, 99):
        out[f"harness.iter_us_p{q}"] = percentile(iters, q) / 1e3
    return out
