"""Each validation rule at every call site: a planted violation is rejected
with the rule's own message, and an input just inside the rule passes."""

import math

import numpy as np
import pytest

from qchan.bounds import applicable_bounds, evaluate_all, f_min
from qchan.channels import (
    UNITARY_TOL,
    Channel,
    ChannelStack,
    ValidationError,
    choi_to_kraus,
    from_choi,
    from_environment,
    from_isometry,
    isometry_superops,
    remix_kraus,
)
from qchan.entropy import renyi
from qchan.cli import _parse_q
from qchan.matcore import q_norm, reshuffle
from qchan.separability import partial_transpose
from qchan.zoo import (
    depolarizing,
    haar_isometries,
    haar_isometry,
    pauli_channel,
    reshuffle_invariant,
    rng_substream,
)


def _scaled(v: np.ndarray, deviation: float) -> np.ndarray:
    """``v`` rescaled so that ``|V^dag V - 1|_2`` equals ``deviation``."""
    return v * math.sqrt(1.0 + deviation / math.sqrt(v.shape[-1]))


def _iso(rows, cols):
    return haar_isometry(rows, cols, rng_substream(90, 0))


def _unused_column_off(deviation):
    # from_environment uses columns 0 and 2 only, so its own check must see it
    u = _iso(4, 4)
    u[:, 1] *= math.sqrt(1.0 + deviation)
    return u


def _stack_with(deviation):
    v = haar_isometries(8, 2, [rng_substream(91, i) for i in range(5)])
    v[3] = _scaled(v[3], deviation)
    return isometry_superops(v, 2, 4, index=range(10, 15))


ISOMETRY_SITES = {
    "from_environment": lambda dev: from_environment(_unused_column_off(dev), 2, 2),
    "from_isometry": lambda dev: from_isometry(_scaled(_iso(8, 2), dev), 2, 4),
    "isometry_superops": _stack_with,
    "remix_kraus": lambda dev: remix_kraus(
        depolarizing(2, 0.5).kraus, _scaled(_iso(5, 4), dev)
    ),
    "reshuffle_invariant": lambda dev: reshuffle_invariant(
        (0.5, 0.3, 0.2), u=_scaled(_iso(2, 2), dev)
    ),
}


@pytest.mark.parametrize("site", sorted(ISOMETRY_SITES))
def test_isometry_rule(site):
    build = ISOMETRY_SITES[site]
    build(0.5 * UNITARY_TOL)
    pattern = "^channel 13: matrix" if site == "isometry_superops" else ""
    with pytest.raises(ValidationError, match=pattern + ".* is not an isometry"):
        build(2.0 * UNITARY_TOL)


SIDE_SITES = {
    "Channel": Channel,
    "ChannelStack": lambda m, block=None: ChannelStack(np.asarray(m)[None], block),
    "from_choi": from_choi,
    "choi_to_kraus": choi_to_kraus,
    "reshuffle": reshuffle,
    "partial_transpose": partial_transpose,
}


@pytest.mark.parametrize("site", sorted(SIDE_SITES))
def test_side_rule(site):
    # this channel's superoperator equals its Choi matrix, so every site takes it
    SIDE_SITES[site](reshuffle_invariant((0.5, 0.3, 0.2)).superop)
    for side in (3, 5):
        with pytest.raises(ValueError, match="is not the square of block size"):
            SIDE_SITES[site](np.eye(side))


@pytest.mark.parametrize("site", sorted(SIDE_SITES))
def test_side_rule_rejects_a_non_integral_block(site):
    m = reshuffle_invariant((0.5, 0.3, 0.2)).superop
    SIDE_SITES[site](m, 2.0)
    with pytest.raises(ValueError, match=r"^block size must be an integer, got 2\.7$"):
        SIDE_SITES[site](m, 2.7)


# site -> (call taking q, smallest order it accepts)
ORDER_SITES = {
    "f_min": (f_min, 1.0),
    "applicable_bounds": (applicable_bounds, 1.0),
    "evaluate_all": (lambda q: evaluate_all(depolarizing(2, 0.5), q), 1.0),
    "q_norm": (lambda q: q_norm(np.eye(3), q), 1.0),
    "_parse_q": (lambda q: _parse_q(str(q)), 0.0),
}


@pytest.mark.parametrize("site", sorted(ORDER_SITES))
def test_order_rule(site):
    call, minimum = ORDER_SITES[site]
    call(minimum)
    call(math.inf)
    for q in (minimum - 0.5, math.nan):
        with pytest.raises(ValueError, match=f"^Rényi order must be >= {minimum:g}, got "):
            call(q)


def test_order_rule_lets_entropies_take_q_zero():
    assert renyi([0.5, 0.5, 0.0], 0.0) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError, match="Rényi order must be >= 0"):
        renyi([0.5, 0.5], -0.5)


@pytest.mark.parametrize(
    "p",
    [[0.5, 0.5 + 1e-11, -1e-11, 0.0], [0.4, 0.3, 0.2, 0.2], [0.4, 0.3, math.nan, 0.3]],
    ids=["negative", "sum_1.1", "nan"],
)
def test_weight_rule(p):
    pauli_channel([0.5, 0.5 + 1e-13, -1e-13, 0.0])
    with pytest.raises(ValueError, match="^weights"):
        pauli_channel(p)
