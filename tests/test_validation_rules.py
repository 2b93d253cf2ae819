"""Each validation rule at every call site: a planted violation is rejected
with the rule's own message, and an input just inside the rule passes."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import qchan

from qchan.bounds import applicable_bounds, evaluate_all, f_min, receiver_upper_value
from qchan.channels import (
    STATE_TOL,
    UNITARY_TOL,
    Channel,
    ChannelStack,
    ValidationError,
    check_state,
    choi_to_kraus,
    from_choi,
    from_environment,
    from_isometry,
    from_kraus,
    from_superoperator,
    isometry_superops,
    remix_kraus,
)
from qchan.entropy import bloch_ellipsoid, exchange_entropy, output_entropy, povm_entropy, renyi
from qchan.cli import _parse_q
from qchan.matcore import HERM_TOL, hermitian_eigenvalues, q_norm, reshuffle
from qchan.separability import classify_region, partial_transpose, separable_criteria
from qchan.zoo import (
    coarse_graining,
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


def _kraus(deviation):
    """Kraus set whose stacked isometry ``V[a*4 + i, a'] = A_i[a, a']`` has
    ``|V^dag V - 1|_2 = |sum_i A_i^dag A_i - 1|_2 = deviation``."""
    return list(_scaled(_iso(8, 2), deviation).reshape(2, 4, 2).swapaxes(0, 1))


def _stack_with(deviation):
    v = haar_isometries(8, 2, [rng_substream(91, i) for i in range(5)])
    v[3] = _scaled(v[3], deviation)
    return isometry_superops(v, 2, 4, index=range(10, 15))


ISOMETRY_SITES = {
    "from_environment": lambda dev: from_environment(_unused_column_off(dev), 2, 2),
    "from_isometry": lambda dev: from_isometry(_scaled(_iso(8, 2), dev), 2, 4),
    "from_kraus": lambda dev: from_kraus(_kraus(dev)),
    "isometry_superops": _stack_with,
    "povm_entropy": lambda dev: povm_entropy(_kraus(dev), 2.0),
    "remix_kraus": lambda dev: remix_kraus(
        depolarizing(2, 0.5).kraus, _scaled(_iso(5, 4), dev)
    ),
    "remix_kraus_ops": lambda dev: remix_kraus(_kraus(dev), _iso(5, 4)),
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


def test_a_kraus_set_and_its_isometry_meet_one_gram_rule():
    # 2.7e-10 lies between UNITARY_TOL and ChannelStack's TP_TOL, so only
    # the Gram rule can reject it, for the Kraus set as for its isometry.
    ops = _kraus(2.7e-10)
    v = np.stack(ops, axis=1).reshape(8, 2)
    for build in (lambda: from_kraus(ops), lambda: from_isometry(v, 2, 4)):
        with pytest.raises(ValidationError, match=r"= 2\.700e-10 \(tolerance 1\.0e-10\)$"):
            build()


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


@pytest.mark.parametrize("site", sorted(SIDE_SITES))
def test_side_rule_rejects_a_block_below_one(site):
    for m, block, side in ((np.zeros((0, 0)), 0, 0), (np.zeros((0, 0)), None, 0),
                           (np.ones((1, 1)), -1, -1)):
        with pytest.raises(ValueError, match=f"^block size must be positive, got {side}$"):
            SIDE_SITES[site](m, block)


# families that build a channel of dimension ``dim`` through the side rule
DIM_SITES = {
    "coarse_graining": coarse_graining,
    "depolarizing": lambda dim: depolarizing(dim, 0.5),
}


@pytest.mark.parametrize("site", sorted(DIM_SITES))
def test_side_rule_rejects_dimension_zero(site):
    DIM_SITES[site](2)
    with pytest.raises(ValueError, match="^block size must be positive, got 0$"):
        DIM_SITES[site](0)


# site -> (call taking q, smallest order it accepts)
ORDER_SITES = {
    "f_min": (f_min, 1.0),
    "applicable_bounds": (applicable_bounds, 1.0),
    "evaluate_all": (lambda q: evaluate_all(depolarizing(2, 0.5), q), 1.0),
    "q_norm": (lambda q: q_norm(np.eye(3), q), 1.0),
    "_parse_q": (lambda q: _parse_q(str(q)), 0.0),
    "separable_criteria": (lambda q: separable_criteria(depolarizing(2, 0.5), q), 1.0),
    "classify_region": (lambda q: classify_region(depolarizing(2, 0.5), q), 1.0),
    "receiver_upper_value": (lambda q: receiver_upper_value(2.0, 2, q), 0.0),
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


def _skewed(h, deviation):
    """``h`` plus an anti-Hermitian part in entries (0, 1) and (1, 0), sized so
    that ``|h - h^dag|_2 / |h|_2`` equals ``deviation``.  The trace stays,
    and so, for a qubit Choi matrix, does the map's image of the identity."""
    h = np.array(h, dtype=complex)
    eps = deviation * np.linalg.norm(h) / (2.0 * math.sqrt(2.0))
    h[0, 1] += 1j * eps
    h[1, 0] += 1j * eps
    return h


def _skewed_choi(deviation):
    # a unital qubit channel, so that bloch_ellipsoid takes it
    return from_choi(_skewed(depolarizing(2, 0.5).choi, deviation), permissive=True)


HERMITIAN_SITES = {
    "ChannelStack": lambda dev: ChannelStack(
        reshuffle(_skewed(depolarizing(2, 0.5).choi, dev))[None], 2
    ),
    "check_state": lambda dev: check_state(_skewed(np.diag([0.6, 0.4]), dev)),
    "choi_to_kraus": lambda dev: choi_to_kraus(_skewed(depolarizing(2, 0.5).choi, dev)),
    "hermitian_eigenvalues": lambda dev: hermitian_eigenvalues(
        np.array([np.eye(3), _skewed(np.diag([3.0, 2.0, 1.0]), dev)])
    ),
    # with rho = 1/N the exchange state is D/N
    "exchange_entropy": lambda dev: exchange_entropy(_skewed_choi(dev), np.eye(2) / 2),
    "bloch_ellipsoid": lambda dev: bloch_ellipsoid(_skewed_choi(dev)),
}


@pytest.mark.parametrize("site", sorted(HERMITIAN_SITES))
def test_hermitian_rule(site):
    HERMITIAN_SITES[site](0.5 * HERM_TOL)
    with pytest.raises(ValueError, match="Hermitian"):
        HERMITIAN_SITES[site](2.0 * HERM_TOL)


def _negative_output(negativity):
    """A permissive qubit map with ``Phi(1/2) = diag(2.5, -negativity)``, whose
    exchange state at ``rho = 1/2`` is ``diag(2.5, 0, 0, -negativity)``: both
    norms exceed 1, so a tolerance scaled by them would let more through."""
    superop = np.diag([5.0, 0.0, 0.0, -2.0 * negativity])
    return from_superoperator(superop, permissive=True)


NEGATIVITY_SITES = {
    "check_state": lambda neg: check_state(np.diag([0.5 + neg, 0.5, -neg])),
    "output_entropy": lambda neg: output_entropy(_negative_output(neg), 2.0),
    "exchange_entropy": lambda neg: exchange_entropy(_negative_output(neg), np.eye(2) / 2),
}


@pytest.mark.parametrize("site", sorted(NEGATIVITY_SITES))
def test_state_negativity_rule(site):
    NEGATIVITY_SITES[site](0.5 * STATE_TOL)
    with pytest.raises(ValidationError, match="negativ"):
        NEGATIVITY_SITES[site](2.0 * STATE_TOL)


def _rule_table() -> list[list[str]]:
    """Cells of README's rule table, one list per row below its header."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8").splitlines()
    start = lines.index("| Rule | Function |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def _modules():
    for info in pkgutil.iter_modules(qchan.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"qchan.{info.name}")


def test_every_tolerance_has_a_row_in_the_rule_table():
    table = " ".join(" ".join(row) for row in _rule_table())
    names = {
        name
        for module in _modules()
        for name, value in vars(module).items()
        if re.search(r"_R?TOL$", name) and isinstance(value, float)
    }
    assert {"HERM_TOL", "CHECK_TOL", "PPT_RTOL"} <= names
    assert sorted(name for name in names if not re.search(rf"\b{name}\b", table)) == []


def test_every_function_of_the_rule_table_resolves():
    sites = [site for _, function in _rule_table() for site in re.findall(r"`(\w+\.\w+)", function)]
    assert len(sites) > 10
    for site in sites:
        module, name = site.split(".")
        assert hasattr(importlib.import_module(f"qchan.{module}"), name), site
