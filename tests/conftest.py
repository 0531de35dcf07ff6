import pytest


@pytest.fixture
def circle_means(monkeypatch):
    """One entry per circle mean (series.converged_circle_mean) run while a test runs."""
    import sys

    from hardyball import series

    original, calls = series.converged_circle_mean, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("hardyball") and \
                getattr(module, "converged_circle_mean", None) is original:
            monkeypatch.setattr(module, "converged_circle_mean", counting)
    return calls
