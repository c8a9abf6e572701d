"""Shared helpers for the test suite: seeded random scenario corpora, hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` runs every property test on a fixed, larger set of
examples, so that a failure in CI reproduces on a rerun; tests that set
their own ``max_examples`` keep it.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import settings

from taskalloc import Scenario, ServerSpec

settings.register_profile("ci", derandomize=True, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Hypothesis imports this module to report a falsifying example.  Its libcst import warns
# (mypy_extensions' DeprecationWarning), which "filterwarnings = error" would turn into an
# INTERNALERROR that hides the example; imported once here, it is cached without warning.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_server(rng: np.random.Generator) -> ServerSpec:
    """One server with d_ms in [0, 200], mu in [1, 300], mixed MM1/MG1."""
    d = rng.uniform(0.0, 0.200)
    mu = rng.uniform(1.0, 300.0)
    if rng.random() < 0.5:
        return ServerSpec.mm1(d, mu)
    cv = rng.uniform(0.0, 3.0)
    if cv == 0.0:
        return ServerSpec.md1(d, mu)
    return ServerSpec.mg1(d, mu, cv)


def random_scenario(rng: np.random.Generator, sizes=(2, 3, 4)) -> Scenario:
    n = int(rng.choice(sizes))
    return Scenario(tuple(random_server(rng) for _ in range(n)))


def random_loads(rng: np.random.Generator, sc: Scenario, count: int) -> np.ndarray:
    """Feasible loads away from the extreme edges of the stable region."""
    return rng.uniform(0.05, 0.95, size=count) * sc.total_mu


@pytest.fixture(scope="session")
def corpus():
    """A reusable batch of random scenarios with loads, seeded for stability."""
    rng = np.random.default_rng(20260825)
    cases = []
    for _ in range(40):
        sc = random_scenario(rng, sizes=(2, 3, 4, 6))
        cases.append((sc, random_loads(rng, sc, 4)))
    return cases


@pytest.fixture()
def toy():
    """Two zero-delay MM1 servers with mu = [2, 1]."""
    return Scenario((ServerSpec.mm1(0.0, 2.0), ServerSpec.mm1(0.0, 1.0)))
