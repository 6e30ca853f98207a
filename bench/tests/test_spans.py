"""Span arithmetic and the patch-and-restore round trip of the recorder."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from spans import Boundary, Recorder, Span  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) holds a [10, 50) and b [60, 90); a holds c [20, 30).
    s = [Span(0, 0, 100, -1, 0), Span(1, 10, 50, 0, 0),
         Span(2, 20, 30, 1, 0), Span(1, 60, 90, 0, 0)]
    assert spans.self_times(s) == [100 - 40 - 30, 40 - 10, 10, 30]
    assert sum(spans.self_times(s)) == 100


def test_has_ancestor_walks_the_parent_chain():
    s = [Span(0, 0, 100, -1, 0), Span(1, 10, 50, 0, 0),
         Span(2, 20, 30, 1, 0)]
    assert spans.has_ancestor(s, 2, 0)
    assert spans.has_ancestor(s, 2, 1)
    assert not spans.has_ancestor(s, 1, 2)
    assert not spans.has_ancestor(s, 0, 0)


def test_recorder_nests_spans_and_counts_episodes():
    rec = Recorder()
    inner = rec.timed("inner", lambda x: x + 1)
    start = rec.timed("start", lambda: None, starts_episode=True)

    def body():
        start()
        return inner(1) + inner(2)

    assert rec.timed("outer", body)() == 5
    names = [rec.names[s.boundary] for s in rec.spans]
    assert names == ["outer", "start", "inner", "inner"]
    assert [s.parent for s in rec.spans] == [-1, 0, 0, 0]
    assert [s.episode for s in rec.spans] == [-1, 0, 0, 0]
    own = spans.self_times(rec.spans)
    outer = rec.spans[0]
    assert own[0] == (outer.end_ns - outer.start_ns
                      - sum(s.end_ns - s.start_ns for s in rec.spans[1:]))


def test_percentile_interpolates_like_numpy():
    assert spans.percentile([], 50) == 0.0
    assert spans.percentile([3, 1, 2], 50) == 2
    assert spans.percentile([0, 10], 90) == pytest.approx(9.0)


def test_install_and_restore_round_trip():
    import cep
    from cep import env, neural, sensing, sr2l

    sense = sensing.sense
    sites = spans._call_sites(sense)
    # Called through sr2l and re-exported by the package.
    assert (sr2l, "sense") in sites and (cep, "sense") in sites
    push = neural.ReplayBuffer.__dict__["push"]
    init = sr2l.EpisodeStepper.__dict__["__init__"]

    rec = Recorder()
    with spans.installed(rec, layers.BOUNDARIES) as absent:
        assert absent == []
        assert all(getattr(mod, name) is not sense for mod, name in sites)
        assert neural.ReplayBuffer.__dict__["push"] is not push
        assert sr2l.EpisodeStepper.__dict__["__init__"] is not init
        arena = env.ArenaConfig(n_pursuers=3, seed=1)
        stepper = sr2l.EpisodeStepper(env.init_world(arena), arena,
                                      sensing.SensingConfig(n_s=8), None)
        stepper.step_action((1.0, 0.0))
    assert all(getattr(mod, name) is sense for mod, name in sites)
    assert neural.ReplayBuffer.__dict__["push"] is push
    assert sr2l.EpisodeStepper.__dict__["__init__"] is init
    names = {rec.names[s.boundary] for s in rec.spans}
    assert {"env.init_world", "sr2l.EpisodeStepper.init", "sensing.sense",
            "sensing.cast_rays", "env.step_world",
            "env.check_outcome"} <= names
    assert rec.counts["env.step_pursuer"] == 3


def test_restores_after_an_exception_and_reports_absent_boundaries():
    from cep import sensing

    sense = sensing.sense
    boundaries = [Boundary("sensing.sense", "sensing", "sense"),
                  Boundary("sensing.gone", "sensing", "no_such_function"),
                  Boundary("nomodule.f", "no_such_module", "f"),
                  Boundary("neural.Gone.f", "neural", "NoSuchClass.f")]
    with pytest.raises(KeyError):
        with spans.installed(Recorder(), boundaries) as absent:
            assert absent == ["sensing.gone", "nomodule.f", "neural.Gone.f"]
            assert sensing.sense is not sense
            raise KeyError("boom")
    assert sensing.sense is sense


def test_layer_metrics_cover_every_per_layer_name():
    rec = Recorder()
    body = rec.timed("sensing.sense", lambda: None)
    rec.counted("env.step_pursuer", lambda: None)
    rec.timed(layers.HARNESS, body)()
    out = layers.layer_metrics(rec, steps=1)
    names = {name for name, _, _ in layers.PER_LAYER} - {"trace.overhead"}
    assert set(out) == names
    assert out["sensing.sense.calls"] == 1
    assert out["sensing.sense.useful_share"] == 1.0
    assert out["neural.critic_update.calls"] == 0
