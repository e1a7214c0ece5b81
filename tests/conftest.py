"""Shared fixtures and hypothesis profiles."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from cspace import (
    Graph,
    PresentedComplex,
    circle_n_stop,
    interval_c,
    interval_delayed_minus,
    interval_delayed_plus,
    interval_j,
    interval_middle_delay,
    interval_reversible,
    line_c,
    rigid_line,
)
from cspace.spaces import diagonal_square

settings.register_profile(
    "default",
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile(
    "acceptance",
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("default")


def shared_last_edge() -> PresentedComplex:
    """Two generators of different lengths and dwell needs end in edge f.
    The longer, (0;[e,f];{1}), comes first in generator order, and on
    [e,f] with a dwell at 2 only it fails on its dwells, while the
    shorter, (1;[f];{1}), succeeds after (0;[e];{}).  g leads back to 1,
    so f recurs within a word."""
    g = Graph({"0", "1", "2"}, {"e": ("0", "1"), "f": ("1", "2"), "g": ("2", "1")})
    return PresentedComplex(g, {
        g.route("0", ["e"]), g.route("0", ["e", "f"], {1}),
        g.route("1", ["f"], {1}), g.route("2", ["g"]),
    })


def build_corpus() -> dict:
    return {
        "interval-c": interval_c(),
        "interval-j": interval_j(),
        "interval-delayed-minus": interval_delayed_minus(),
        "interval-delayed-plus": interval_delayed_plus(),
        "interval-middle-delay": interval_middle_delay(),
        "interval-reversible": interval_reversible(),
        "line-3": line_c(3),
        "circle-1": circle_n_stop(1),
        "circle-3": circle_n_stop(3),
        "rigid-2": rigid_line(2),
        "diagonal-square": diagonal_square(),
        "shared-last-edge": shared_last_edge(),
    }


@pytest.fixture(scope="session")
def corpus() -> dict:
    return build_corpus()


@pytest.fixture()
def ci():
    return interval_c()


@pytest.fixture()
def cj():
    return interval_j()


@pytest.fixture()
def delayed_minus():
    return interval_delayed_minus()


@pytest.fixture()
def delayed_plus():
    return interval_delayed_plus()


@pytest.fixture()
def middle_delay():
    return interval_middle_delay()


@pytest.fixture()
def reversible():
    return interval_reversible()


@pytest.fixture()
def diag():
    return diagonal_square()
