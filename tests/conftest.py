import builtins

import pytest


def _compensated_sum(items, start=0):
    """Python 3.12's ``sum()`` of floats: Neumaier's compensated summation."""
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c


@pytest.fixture
def compensated_sum(monkeypatch):
    """``builtins.sum`` replaced by Python 3.12's sum of floats for the test:
    a result must not depend on which interpreter sums it."""
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
