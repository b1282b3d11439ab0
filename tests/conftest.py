"""Shared fixtures: the bundled worked example and small generated sets."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import reservematch as rm


@pytest.fixture(scope="session")
def ex1() -> rm.ProblemInstance:
    return rm.load_instance(rm.ex1_path())


@pytest.fixture(scope="session")
def ex1_config(ex1) -> rm.SchoolConfig:
    return ex1.schools[0]


@pytest.fixture(scope="session")
def X(ex1) -> SimpleNamespace:
    """The six worked-example contracts by their traditional names."""
    by = {f"{c.student}:{c.privilege}": c for c in ex1.contracts}
    return SimpleNamespace(
        x1=by["i:t1"],
        y2=by["j:t2"],
        z2=by["k:t2"],
        z3=by["k:t3"],
        w1=by["l:t1"],
        w3=by["l:t3"],
    )


def small_params(seed: int) -> rm.GeneratorParams:
    """Desk-scale generator parameters keeping every student's contract set
    small enough for exhaustive misreport enumeration."""
    import random

    rng = random.Random(seed)
    types = rng.randint(1, 3)
    return rm.GeneratorParams(
        students=rng.randint(2, 4),
        schools=rng.randint(1, 2),
        types=types,
        seed=seed,
        capacity_range=(1, 2),
        claim_range=(1, min(2, types)),
        scheme_family="mixed",
        acceptability=0.75,
    )


@pytest.fixture(scope="session")
def small_instances() -> list:
    """200 seeded desk-scale instances shared by the heavier suites."""
    return [rm.generate_random_instance(small_params(2000 + k)) for k in range(200)]
