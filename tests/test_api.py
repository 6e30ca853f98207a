import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import cep
from cep import sr2l

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
    assert [f.name for f in fields(sr2l.StepResult)] == \
        ["action", "reward", "branch", "outcome", "realized"]
    assert not hasattr(sr2l, "ScaffoldDecision")
    assert not hasattr(sr2l, "ExperienceTuple")
