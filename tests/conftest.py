"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.state import GameState


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')"
    )
    # a file or socket a test leaves open fails that test: its
    # ResourceWarning is raised inside a finaliser, and pytest reports
    # the unraisable exception as a warning
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20230711)  # PODC 2023 week


@pytest.fixture
def star6() -> GameState:
    return GameState(nx.star_graph(5), 2)


@pytest.fixture
def path5() -> GameState:
    return GameState(nx.path_graph(5), 3)


@pytest.fixture
def cycle6() -> GameState:
    return GameState(nx.cycle_graph(6), 5)


def small_alpha_grid():
    """The alpha values exercised throughout the small-graph tests."""
    from fractions import Fraction

    return [Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 5, 9]
