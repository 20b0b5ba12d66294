import time

import pytest


@pytest.fixture
def fixed_clock(monkeypatch):
    """``time.perf_counter`` advances by exactly 1 ms per call."""
    state = {"t": 0.0}

    def fake_perf_counter():
        state["t"] += 0.001
        return state["t"]

    monkeypatch.setattr(time, "perf_counter", fake_perf_counter)
    return state
