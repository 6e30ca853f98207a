import ast
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import cep
from cep import config, env, harness, neural, pfm, rewards, sr2l

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
