import pytest

from qchan import rng_substream
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
    rngs = [rng_substream(CPTP_SEED, i) for i in range(10_000)]
    return _rows(*random_cptp_stack(2, envs, rngs))


@pytest.fixture(scope="session")
def bistochastic_ensemble():
    """10^4 random unitary mixtures (1 to 4 terms)."""
    ks = [i % 4 + 1 for i in range(10_000)]
    rngs = [rng_substream(BISTOCHASTIC_SEED, i) for i in range(10_000)]
    return _rows(*random_bistochastic_stack(2, ks, rngs))
