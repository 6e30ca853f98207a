import importlib
import pkgutil
from dataclasses import fields

import pytest

import cep
from cep import sr2l

MODULES = sorted(m.name for m in pkgutil.iter_modules(cep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"cep.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_step_result_carries_only_what_training_reads():
    assert [f.name for f in fields(sr2l.StepResult)] == \
        ["action", "reward", "branch", "outcome", "realized"]
    assert not hasattr(sr2l, "ScaffoldDecision")
    assert not hasattr(sr2l, "ExperienceTuple")
