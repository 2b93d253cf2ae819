import dataclasses

import pytest

from qchan import bounds, rng_substreams, separability
from qchan.zoo import random_bistochastic_stack, random_cptp_stack

CPTP_SEED = 101
BISTOCHASTIC_SEED = 202


def _rows(stack, labels):
    """One channel per stack row; each computes its own spectra when read."""
    return [stack.channel(i, label=label) for i, label in enumerate(labels)]


@pytest.fixture(scope="session")
def cptp_ensemble():
    """10^4 random CP-TP qubit channels with environment dims 2 and 4."""
    envs = [2 if i % 2 == 0 else 4 for i in range(10_000)]
    rngs = rng_substreams(CPTP_SEED, range(10_000))
    return _rows(*random_cptp_stack(2, envs, rngs))


@pytest.fixture(scope="session")
def bistochastic_ensemble():
    """10^4 random unitary mixtures (1 to 4 terms)."""
    ks = [i % 4 + 1 for i in range(10_000)]
    rngs = rng_substreams(BISTOCHASTIC_SEED, range(10_000))
    return _rows(*random_bistochastic_stack(2, ks, rngs))


@pytest.fixture
def plant_criteria(monkeypatch):
    """``plant(rhs, ids=None)`` gives the separability criteria ``ids`` (all
    of them by default) the right-hand side ``rhs``, in both ``bounds.TABLE``
    and ``separability.CRITERIA``, for the rest of the test."""

    def plant(rhs, ids=None):
        table = tuple(
            dataclasses.replace(b, rhs=rhs) if b.separable and (ids is None or b.id in ids) else b
            for b in bounds.TABLE
        )
        monkeypatch.setattr(bounds, "TABLE", table)
        monkeypatch.setattr(separability, "CRITERIA", tuple(b for b in table if b.separable))

    return plant
