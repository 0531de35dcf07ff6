import sys

import numpy as np
import pytest


def _replace(monkeypatch, name, replacement):
    """Put ``replacement`` in place of series.<name> in every hardyball module that holds it."""
    from hardyball import series

    original = getattr(series, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hardyball") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)
    return original


@pytest.fixture
def circle_means(monkeypatch):
    """One entry per circle mean (series.converged_circle_mean) run while a test runs."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = _replace(monkeypatch, "converged_circle_mean", counting)
    return calls


def _expansions(monkeypatch, float_calls, exact_calls):
    """Record (K, parameter count) of every complex series.expand, one entry per row of a
    stacked one, and K of every exact one, K the last hole the expansion reads."""
    def counting(numerator, parameters, holes, width=0, ring=complex):
        k_max = holes[-1] if len(holes) else 0
        if ring is complex:
            rows = len(numerator) if np.ndim(numerator) == 2 else 1
            float_calls.extend([(k_max, len(parameters))] * rows)
        else:
            exact_calls.append(k_max)
        return original(numerator, parameters, holes, width, ring)

    original = _replace(monkeypatch, "expand", counting)


@pytest.fixture
def expansions(monkeypatch):
    """(K, parameter count) of every Taylor recurrence on complex floats run while a test
    runs, K its last hole, one entry per row of a stacked recurrence."""
    calls = []
    _expansions(monkeypatch, calls, [])
    return calls


@pytest.fixture
def lift_expansions(monkeypatch):
    """K of every exact Taylor recurrence run while a test runs, K its last hole."""
    calls = []
    _expansions(monkeypatch, [], calls)
    return calls


@pytest.fixture
def scans(monkeypatch):
    """(rows, terms) of every doubling scan (series._scan) run while a test runs: the heads
    and full scans of complex expansions."""
    calls = []

    def counting(x, factors, n):
        calls.append((len(x) if np.ndim(x) == 2 else 1, n))
        return original(x, factors, n)

    original = _replace(monkeypatch, "_scan", counting)
    return calls
