import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qchan import entropy
from qchan.bounds import receiver_upper_value
from qchan.channels import ValidationError
from qchan.entropy import (
    bloch_ellipsoid,
    entropy_point,
    exchange_entropy,
    map_entropy,
    output_entropy,
    povm_entropy,
    receiver_entropy,
    renyi,
    spectrum_probabilities,
)
from qchan.zoo import (
    coarse_graining,
    depolarizing,
    haar_unitary,
    identity_channel,
    random_cptp,
    random_cptp_stack,
    rng_substream,
    spontaneous_emission,
)


def test_renyi_uniform_is_log_n_for_every_order():
    for n in (2, 3, 5, 8):
        p = np.full(n, 1.0 / n)
        for q in (0.0, 0.5, 1.0, 2.0, 7.0, math.inf):
            assert abs(renyi(p, q) - math.log(n)) < 1e-12


def test_renyi_point_mass_is_zero():
    p = np.array([1.0, 0.0, 0.0])
    for q in (0.5, 1.0, 2.0, math.inf):
        assert renyi(p, q) == 0.0
    assert renyi(p, 0.0) == 0.0  # support counting ignores exact zeros


def test_renyi_named_orders():
    p = np.array([0.5, 0.25, 0.25])
    assert abs(renyi(p, 1.0) - 1.5 * math.log(2)) < 1e-12
    assert abs(renyi(p, 2.0) + math.log(3 / 8)) < 1e-12
    assert abs(renyi(p, math.inf) - math.log(2)) < 1e-12
    assert abs(renyi(p, 0.0) - math.log(3)) < 1e-12
    # the q -> 1 window adds -(q-1)/2 Var_p(ln p), here Var = (ln 2)^2 / 4
    first_order = 1.5 * math.log(2) - 0.5e-7 * math.log(2) ** 2 / 4
    assert abs(renyi(p, 1.0 + 1e-7) - first_order) < 1e-14


def test_renyi_is_nonincreasing_in_q():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        values = [renyi(p, q) for q in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0, math.inf)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))


def test_renyi_input_validation():
    with pytest.raises(ValueError):
        renyi(np.array([0.5, 0.5]), -1.0)
    with pytest.raises(ValueError):
        renyi(np.array([0.7, 0.7]), 1.0)  # sums to 1.4
    with pytest.raises(ValueError):
        renyi(np.array([1.2, -0.2]), 1.0)


def test_spectrum_probabilities_cleans_roundoff():
    p = spectrum_probabilities(np.array([0.5, 0.5, -1e-13]), negative_tol=1e-9)
    assert np.all(p >= 0.0)
    assert abs(p.sum() - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        spectrum_probabilities(np.array([1.1, -0.1]), negative_tol=1e-9)


def test_spectrum_probabilities_rejects_non_finite_entries():
    # inf gave [nan, 0] with a RuntimeWarning, and nan was reported as negative
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="^spectrum contains non-finite entries$"):
            spectrum_probabilities([bad, 1.0])
    with pytest.raises(ValidationError, match="^row 1: spectrum contains non-finite"):
        spectrum_probabilities([[0.5, 0.5], [1.0, math.inf]])


def test_map_and_receiver_entropy_extremes():
    ident = identity_channel(2)
    assert map_entropy(ident, 1.0) == 0.0
    assert abs(receiver_entropy(ident, 1.0) - 2 * math.log(2)) < 1e-12
    star = depolarizing(2, 0.0)
    assert abs(map_entropy(star, 1.0) - 2 * math.log(2)) < 1e-12
    assert receiver_entropy(star, 1.0) == 0.0


def test_entropies_live_in_the_allowed_interval():
    for i in range(50):
        ch = random_cptp(2, 4, rng_substream(22, i))
        for q in (0.5, 1.0, 2.0, math.inf):
            for value in (map_entropy(ch, q), receiver_entropy(ch, q)):
                assert -1e-12 <= value <= 2 * math.log(2) + 1e-12


def test_povm_entropy_canonical_kraus_matches_map_entropy():
    for i in range(20):
        ch = random_cptp(2, 4, rng_substream(23, i))
        for q in (1.0, 2.0):
            assert abs(povm_entropy(ch.kraus, q) - map_entropy(ch, q)) < 1e-9


def test_povm_entropy_never_below_map_entropy():
    # remixing the Kraus set mixes the weight vector, raising its entropy
    from qchan.channels import remix_kraus

    for i in range(20):
        ch = random_cptp(2, 4, rng_substream(24, i))
        v = haar_unitary(len(ch.kraus), rng_substream(24, 1000 + i))
        remixed = remix_kraus(ch.kraus, v)
        for q in (1.0, 2.0):
            assert povm_entropy(remixed, q) >= map_entropy(ch, q) - 1e-9


def test_exchange_entropy_at_maximally_mixed_input_is_map_entropy():
    for i in range(10):
        ch = random_cptp(2, 4, rng_substream(25, i))
        ex = exchange_entropy(ch, np.eye(2) / 2.0)
        assert abs(ex - map_entropy(ch, 1.0)) < 1e-9


def test_exchange_entropy_pure_input_equals_output_entropy():
    # for a pure input the environment and output marginals share a spectrum
    psi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    for i in range(10):
        ch = random_cptp(2, 4, rng_substream(26, i))
        out = ch.apply(psi)
        w = np.linalg.eigvalsh(out)
        w = np.clip(w, 0.0, None)
        direct = -(w[w > 1e-15] * np.log(w[w > 1e-15])).sum()
        assert abs(exchange_entropy(ch, psi) - direct) < 1e-9


def test_output_entropy_of_coarse_graining():
    cg = coarse_graining(2)
    assert abs(output_entropy(cg, 1.0) - math.log(2)) < 1e-12
    se = spontaneous_emission(2)
    assert output_entropy(se, 1.0) == 0.0


def test_bloch_ellipsoid_examples():
    assert bloch_ellipsoid(identity_channel(2)) == pytest.approx((1.0, 1.0, 1.0))
    assert bloch_ellipsoid(coarse_graining(2)) == pytest.approx((0.0, 0.0, 1.0))
    alpha = 0.37
    assert bloch_ellipsoid(depolarizing(2, alpha)) == pytest.approx((alpha, alpha, alpha))


def test_bloch_ellipsoid_invariant_under_unitary_rotation():
    from qchan.channels import from_superoperator

    alpha = 0.4
    ch = depolarizing(2, alpha)
    u = haar_unitary(2, rng_substream(27, 0))
    rotated = from_superoperator(np.kron(u, u.conj()) @ ch.superop)
    assert bloch_ellipsoid(rotated) == pytest.approx((alpha, alpha, alpha), abs=1e-10)


def test_bloch_ellipsoid_requires_unital_qubit_map():
    with pytest.raises(ValueError):
        bloch_ellipsoid(spontaneous_emission(2))  # not unital
    with pytest.raises(ValueError):
        bloch_ellipsoid(identity_channel(3))  # wrong dimension


def test_entropy_point_carries_extras():
    ch = depolarizing(2, 0.5)
    ep = entropy_point(ch, 2.0)
    assert ep.q == 2.0
    assert ep.channel_label == ch.label
    assert abs(ep.s_map - map_entropy(ch, 2.0)) < 1e-15
    assert abs(ep.s_rec - receiver_entropy(ch, 2.0)) < 1e-15
    for key in ("s_output", "sigma1", "tau1", "d1", "lambda_phi"):
        assert key in ep.extras


def test_povm_entropy_validates_kraus():
    bad = [np.diag([1.0, 0.5]).astype(complex)]
    with pytest.raises(ValidationError):
        povm_entropy(bad, 1.0)


# ---------------------------------------------------------------------------
# 40-digit references: the Shannon window and large finite orders


def _renyi_reference(weights, q) -> float:
    """``S_q`` of the weights, normalized exactly, at 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emin, ctx.Emax = 40, -(10**9), 10**9
        w = [Decimal(float(x)) for x in weights if x > 0]
        total, order = sum(w), Decimal(float(q))
        if math.isinf(q):
            return float(-(max(w) / total).ln())
        power_sum = sum(((x / total).ln() * order).exp() for x in w)
        return float(power_sum.ln() / (1 - order))


def _cptp_spectra():
    """Map and receiver spectra, and trace norms, of random_cptp channels at
    N = 2, 4 and 8 with environments N, N^2 and 2 (rank-deficient and full)."""
    for n in (2, 4, 8):
        rngs = [rng_substream(91, 10 * n + i) for i in range(3)]
        stack, _ = random_cptp_stack(n, [n, n * n, 2], rngs)
        p = [entropy.probabilities(stack, kind) for kind in ("map", "receiver")]
        yield n, np.concatenate(p), stack.singular_values.sum(axis=-1)


def _majorizing_weights(lam: float, n: int) -> list:
    """The weights ``(1, (lam-1)/(N^2-1) x (N^2-1))`` behind receiver_upper_value."""
    rest = n * n - 1
    return [1.0] + [(lam - 1.0) / rest] * rest


WINDOW_ORDERS = (1.0 - 0.99e-6, 1.0 - 5e-7, 1.0 + 5e-7, 1.0 + 0.99e-6)


def test_renyi_shannon_window_matches_the_decimal_reference():
    # returning S_1 for S_q was off by 2.4-2.6e-7 at q = 1 + 0.99e-6
    for n, p, _ in _cptp_spectra():
        for q in WINDOW_ORDERS:
            assert abs(q - 1.0) < entropy.Q_ONE_WINDOW
            got = entropy._renyi(p, q)
            for i, row in enumerate(p):
                assert abs(got[i] - _renyi_reference(row, q)) <= 1e-11, (n, q, i)
        # at q = 1 itself the window is the Shannon sum, bit for bit
        shannon = -np.sum(p * np.log(np.where(p > 0.0, p, 1.0)), axis=-1)
        assert np.array_equal(entropy._renyi(p, 1.0), shannon)


def test_receiver_upper_value_shannon_window_matches_the_decimal_reference():
    # and the orders on either side of it, which take the same rule
    for n, _, lam in _cptp_spectra():
        for q in WINDOW_ORDERS + (0.5, 1.5, 2.0, math.inf):
            got = receiver_upper_value(lam, n, q)
            for i, x in enumerate(lam):
                want = _renyi_reference(_majorizing_weights(x, n), q)
                assert abs(got[i] - want) <= 1e-11, (n, q, i)


LARGE_ORDERS = (150.0, 300.0, 1100.0, 1e6)


def test_renyi_large_orders_match_the_decimal_reference():
    # the direct sum p**q underflowed: renyi([0.5, 0.3, 0.2], 1100) was inf
    rows = [np.array([0.5, 0.3, 0.2])] + [row for _, p, _ in _cptp_spectra() for row in p]
    for row in rows:
        top = -math.log(row.max())
        previous = math.inf
        for q in LARGE_ORDERS:
            assert q > entropy.Q_LARGE
            got = renyi(row, q)
            assert abs(got - _renyi_reference(row, q)) <= 1e-13, q
            # S_q falls to S_inf = -ln p_max with a gap of at most -ln(p_max)/(q-1)
            assert renyi(row, math.inf) <= got <= min(previous, top + top / (q - 1.0) + 1e-15)
            previous = got


def test_receiver_upper_value_large_orders_match_the_decimal_reference():
    # lam**q * rest**(q-1) overflowed: at q = 150 the value was silently wrong
    for n, _, lam in _cptp_spectra():
        previous = np.full(len(lam), np.inf)
        for q in LARGE_ORDERS + (math.inf,):
            got = receiver_upper_value(lam, n, q)
            for i, x in enumerate(lam):
                want = _renyi_reference(_majorizing_weights(x, n), q)
                assert abs(got[i] - want) <= 1e-13, (n, q, i)
            # the limit is the q = inf value ln(lam)
            limit = receiver_upper_value(lam, n, math.inf)
            assert np.all((limit <= got) & (got <= previous))
            assert np.all(got - limit <= np.log(lam) / (q - 1.0) + 1e-15)
            previous = got
