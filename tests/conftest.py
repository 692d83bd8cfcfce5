"""Shared fixtures for the COMPASS reproduction test suite."""

from __future__ import annotations

import pytest

from repro import Engine, complex_backend, simple_backend
from repro.core.stats import StatsRegistry


def pytest_collection_modifyitems(items):
    """Run ``benchmarks/e2e``'s own tests first, as the bench runs: in a
    process where no gc callback is installed. Its run deadline is an
    exception raised from SIGALRM, which Python drops when it lands in a gc
    callback — and hypothesis installs one with its first test."""
    items.sort(key=lambda item: not item.nodeid.startswith("benchmarks/e2e/"))


@pytest.fixture
def engine1():
    """A single-CPU simple-backend engine."""
    return Engine(simple_backend(num_cpus=1))


@pytest.fixture
def engine2():
    """A 2-CPU complex-backend engine."""
    return Engine(complex_backend(num_cpus=2))


@pytest.fixture
def engine4():
    """A 4-CPU complex-backend (CC-NUMA) engine."""
    return Engine(complex_backend(num_cpus=4))


def run_app(engine: Engine, *apps, **kw):
    """Spawn each app and run to completion; returns (procs, stats)."""
    procs = [engine.spawn(f"t{i}", app) for i, app in enumerate(apps)]
    stats = engine.run(**kw)
    return procs, stats


@pytest.fixture
def runner():
    return run_app
