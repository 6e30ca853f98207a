import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import cep
from cep import env, rewards, sr2l

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


def test_step_result_carries_only_what_training_reads():
    # Training reads arbitrate's tuple and step_action's results: no step
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
