import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cep
from cep import config, env, harness, neural, pfm, rewards, sensing, sr2l

MODULES = sorted(m.name for m in pkgutil.iter_modules(cep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"cep.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", [
    name for name in MODULES
    if hasattr(importlib.import_module(f"cep.{name}"), "__all__")])
def test_exports_complete(name):
    # Every public top-level def and class of the module is in its __all__.
    module = importlib.import_module(f"cep.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [n for n in public if n not in module.__all__] == []


def test_package_exports_every_module_export():
    # cep's public names are its library modules' __all__ lists (cli is the
    # command line), and each name has one home.
    exports = [n for name in MODULES if name != "cli"
               for n in importlib.import_module(f"cep.{name}").__all__]
    assert len(exports) == len(set(exports))
    public = {n for n in dir(cep) if not n.startswith("_")
              and not inspect.ismodule(getattr(cep, n))}
    assert public == set(exports)


def test_step_result_carries_only_what_training_reads():
    # Training reads arbitrate's tuple and step_action's rewards: no step
    # record type, and one step method on the stepper.
    for name in ("StepResult", "ScaffoldDecision", "ExperienceTuple"):
        assert not hasattr(sr2l, name)
    assert not hasattr(sr2l.EpisodeStepper, "step")


def test_reward_is_one_function_and_an_outcome_its_kind():
    assert rewards.__all__ == ["RewardBreakdown", "transition_reward"]
    assert [f.name for f in fields(rewards.RewardBreakdown)] == [
        "r_d", "r_b", "sum_w", "r"]
    assert not hasattr(env, "EpisodeOutcome")
    assert not hasattr(cep, "EpisodeOutcome")


def test_scaffold_choice_is_one_body():
    assert sr2l.__all__ == ["ScaffoldConfig", "to_velocity",
                            "predict_next_state", "EpisodeStepper",
                            "arbitrate"]
    for name in ("Branch", "reward_gap", "scaffold_select"):
        assert not hasattr(sr2l, name)
        assert not hasattr(cep, name)


def test_frame_is_read_as_sensed():
    # A frame keys its detections by pursuer id, and the planner reads the
    # frame whole.
    assert sensing.Detection._fields == ("distance", "bearing", "speed",
                                         "theta")
    assert list(inspect.signature(pfm.net_force).parameters) == [
        "frame", "gains"]


def test_actor_input_is_one_call_on_a_world():
    # observe casts its own rays: the stepper keeps no scan, and the
    # objective reads a frame, so env holds only world code.
    assert list(inspect.signature(sensing.observe).parameters) == ["w", "cfg"]
    assert not hasattr(sr2l.EpisodeStepper, "lidars")
    assert not hasattr(env, "objective_value")
    assert list(inspect.signature(sensing.objective_value).parameters) == [
        "frame", "arena", "cfg"]


def test_stepper_holds_worlds_and_frames_only():
    # Whoever acts encodes the actor's input and samples the actor: the
    # stepper takes a world and keeps no sensing, training hands arbitrate
    # the proposal it sampled, so sr2l imports nothing from neural, and the
    # actor policy keeps the sensing make_policy checked.
    assert list(inspect.signature(sr2l.EpisodeStepper.__init__).parameters) \
        == ["self", "world"]
    stepper = sr2l.EpisodeStepper(env.init_world(env.ArenaConfig(), 0))
    for name in ("observations", "sensing_cfg", "_observations"):
        assert not hasattr(stepper, name)
    assert list(inspect.signature(sr2l.arbitrate).parameters) == [
        "stepper", "a_r", "scaffold", "planner"]
    # Every module and name an import in sr2l names: none is neural.
    imported = [name for node in ast.walk(ast.parse(Path(sr2l.__file__)
                                                    .read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for name in [getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)]]
    assert "PfmPolicy" in imported
    assert [n for n in imported if n.split(".")[-1] == "neural"] == []
    cfg = config.desk_profile()
    bundle = neural.PolicyBundle.create(cfg.sensing.n_s, cfg.train,
                                        np.random.default_rng(0))
    policy = harness.make_policy("checkpoint", cfg, bundle)
    assert isinstance(policy, harness.ActorPolicy)
    assert policy.sensing is cfg.sensing


@pytest.mark.parametrize("kind", harness.POLICY_KINDS)
def test_a_policy_is_its_act(kind):
    # The evaluation loop only calls act: no policy is reset per batch.
    cfg = config.desk_profile()
    bundle = (neural.PolicyBundle.create(cfg.sensing.n_s, cfg.train,
                                         np.random.default_rng(0))
              if kind == "checkpoint" else None)
    policy = harness.make_policy(kind, cfg, bundle)
    assert callable(policy.act)
    assert not hasattr(policy, "reset")


def test_no_class_defines_reset():
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(f"cep.{name}").__file__)
                         .read_text())
        assert [(cls.name, node.name) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if getattr(node, "name", None) == "reset"] == []


def test_action_is_two_dimensional():
    assert neural.ACTION_DIM == 2
    for constructor in (neural.ReplayBuffer.__init__,
                        neural.PolicyBundle.create):
        assert "action_dim" not in inspect.signature(constructor).parameters


def test_planner_has_one_home():
    assert "PfmPolicy" not in harness.__all__
    assert cep.PfmPolicy is pfm.PfmPolicy


def test_evaluation_summary_is_one_record():
    assert not hasattr(harness, "EvalBucket")
    assert [f.name for f in fields(harness.EvalReport)] == [
        "episodes", "overall", "buckets"]
    # The columns of eval_summary.csv.
    assert [f.name for f in fields(harness.EvalSummary)] == [
        "scope", "episodes", "escape_pct", "mean_escape_steps", "mean_reward"]


def test_config_file_loads_on_the_desk_profile():
    assert list(inspect.signature(config.load_config).parameters) == ["path"]


def test_readme_python_api_block_runs():
    # The ```python block under README's "Python API" heading runs as
    # written and evaluates the two episodes it asks for.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Python API\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(code, scope)
    assert len(scope["report"].episodes) == 2
