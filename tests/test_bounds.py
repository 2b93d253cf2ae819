import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from qchan import bounds
from qchan.bounds import (
    CHECK_TOL,
    TABLE,
    applicable_bound_ids,
    evaluate_all,
    f_max,
    f_min,
    g_min,
    receiver_upper_value,
    record,
    reordered_entropy_bounds,
    sigma1_search,
    sigma1_variational,
    spectral_entropy_bounds,
)
from qchan.channels import ChannelStack, ValidationError, from_kraus, from_superoperator
from qchan.entropy import map_entropy, output_entropy, receiver_entropy, renyi
from qchan.matcore import reorder, reshuffle_permutation
from qchan.separability import classify_region
from qchan.zoo import (
    coarse_graining,
    complete_contraction,
    depolarizing,
    identity_channel,
    interval_channel,
    interval_channel_general,
    maximally_depolarizing,
    random_bistochastic,
    random_bistochastic_stack,
    random_cptp,
    random_cptp_stack,
    random_density,
    random_interval_channel,
    random_pauli_channel,
    random_reshuffle_invariant,
    rng_stream,
    rng_substream,
    rng_substreams,
    spontaneous_emission,
)

LN2 = math.log(2.0)

# Table rows that bound each entropy by its own and its partner matrix's
# extreme singular values, and the rows that use the output state Phi(1/N).
RANGE_IDS = (
    "receiver_self_lower",
    "map_self_lower",
    "receiver_cross_lower",
    "map_cross_lower",
    "receiver_self_upper",
    "map_self_upper",
    "receiver_cross_upper",
    "map_cross_upper",
)
SANDWICH_IDS = ("map_output_lower", "map_output_upper", "map_rank_lower")
INTERVAL_IDS = ("interval_receiver_upper", "interval_map_lower")


def _report_ids(ids, q):
    """The ids of ``ids`` that the bound report carries at order ``q``."""
    return [rid for rid in applicable_bound_ids(q) if rid in ids]


def _random_channel(i):
    """Cycle through the ensembles so sweeps see different channel types."""
    rng = rng_substream(61, i)
    kind = i % 4
    if kind == 0:
        return random_cptp(2 + i % 3, 2, rng)
    if kind == 1:
        return random_cptp(2, 4, rng)
    if kind == 2:
        return random_pauli_channel(rng)
    return random_bistochastic(2 + i % 2, i % 3 + 1, rng)


# ---------------------------------------------------------------------------
# coefficients


def test_coefficient_values():
    assert f_min(1.0) == 2.0
    assert f_min(1.5) == 2.0
    assert f_min(2.0) == 2.0
    assert abs(f_min(3.0) - 1.5) < 1e-15
    assert abs(f_min(4.0) - 4.0 / 3.0) < 1e-15
    assert f_min(math.inf) == 1.0

    assert f_max(1.0) == math.inf
    assert abs(f_max(1.5) - 3.0) < 1e-15
    assert f_max(2.0) == 2.0
    assert f_max(3.0) == 2.0
    assert f_max(math.inf) == 2.0

    assert g_min(1.0) == 0.0
    assert abs(g_min(1.5) - 2.0 / 3.0) < 1e-15
    assert g_min(2.0) == 1.0
    assert abs(g_min(3.0) - 0.75) < 1e-15
    assert g_min(math.inf) == 0.5


def test_coefficients_reject_small_orders():
    for func in (f_min, f_max, g_min):
        for bad in (0.5, 0.999, -1.0, math.nan):
            with pytest.raises(ValueError):
                func(bad)


# ---------------------------------------------------------------------------
# matrix-level bounds


def test_spectral_entropy_bounds_diagonal_example():
    x = np.diag([3.0, 1.0])
    recs = spectral_entropy_bounds(x, 2.0)
    assert [r.id for r in recs] == ["spectral_entropy_lower", "spectral_entropy_upper"]
    s2 = renyi(np.array([0.75, 0.25]), 2.0)
    low, up = recs
    assert abs(low.lhs - s2) < 1e-12
    assert abs(low.rhs - math.log(4.0 / 3.0)) < 1e-12
    assert abs(up.rhs - 2.0 * math.log(4.0 / 3.0)) < 1e-12
    assert low.satisfied and up.satisfied

    # q = 1 keeps only the lower bound; q = inf makes both bounds tight
    assert [r.id for r in spectral_entropy_bounds(x, 1.0)] == ["spectral_entropy_lower"]
    for r in spectral_entropy_bounds(x, math.inf):
        assert abs(r.slack) < 1e-12


def test_spectral_entropy_bounds_random_sweep():
    for i in range(100):
        rng = rng_substream(62, i)
        n = int(rng.integers(2, 6))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for q in (1.0, 1.7, 3.0, math.inf):
            for r in spectral_entropy_bounds(x, q):
                assert r.slack >= -1e-10, (i, q, r)


def test_spectral_entropy_bounds_rejects_zero_matrix():
    with pytest.raises(ValueError):
        spectral_entropy_bounds(np.zeros((3, 3)), 2.0)


@pytest.mark.parametrize("seed", range(10))
def test_lemma_columns_are_bit_identical_to_the_one_matrix_records(seed):
    # the draws of verify --suite lemmas --n 100: sizes 4-9, grouped by size
    draws = []
    for i in range(100):
        rng = rng_substream(seed, i)
        size = int(rng.integers(4, 10))
        m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        draws.append((m, rng.permutation(size * size)))
    for size in {len(m) for m, _ in draws}:
        group = [(m, p) for m, p in draws if len(m) == size]
        sx, y, sy = bounds.lemma_spectra(*(np.array(part) for part in zip(*group)))
        assert np.array_equal(y, [reorder(m, p) for m, p in group])
        for q in (1.5, 2.0, 4.0):
            columns = np.stack(bounds.lemma_columns(sx, sy, q), axis=-1)  # (B, 4, 3)
            for (m, perm), got in zip(group, columns):
                want = spectral_entropy_bounds(m, q) + reordered_entropy_bounds(m, perm, q)
                assert [r.id for r in want] == [row.id for row in bounds.LEMMA_ROWS]
                assert np.array_equal(got, [(r.lhs, r.rhs, r.slack) for r in want])


def test_lemma_columns_keep_the_one_matrix_errors():
    good = np.eye(3)[None]
    sx, _, sy = bounds.lemma_spectra(good, np.arange(9)[None])
    assert bounds.lemma_columns(sx, None, 1.0)[0].shape == (1, 1)
    assert bounds.lemma_columns(sx, sy, 1.0)[0].shape == (1, 2)  # the two lower rows
    with pytest.raises(ValueError, match="Rényi order"):
        bounds.lemma_columns(sx, None, 0.5)
    sx, _, _ = bounds.lemma_spectra(np.array([np.eye(3), np.zeros((3, 3))]))
    with pytest.raises(ValueError, match="nonzero singular value"):
        bounds.lemma_columns(sx, None, 2.0)
    with pytest.raises(ValueError, match="non-finite"):
        bounds.lemma_spectra(np.array([np.eye(3), np.full((3, 3), np.nan)]))
    with pytest.raises(ValueError, match="not a bijection"):
        bounds.lemma_spectra(good, np.zeros((1, 9), dtype=int))


def test_reordered_entropy_bounds_give_the_lower_record_at_q_one():
    x = np.eye(4)
    (rec,) = reordered_entropy_bounds(x, reshuffle_permutation(2), 1.0)
    assert rec.id == "reordered_entropy_lower" and rec.satisfied


def _adversarial_matrix(kind: str, size: int, rng) -> np.ndarray:
    """A ``size x size`` complex matrix of one of the shapes that stress the
    spectrum lemmas: sparse, rank one, a scaled identity, or with repeated
    singular values."""
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if kind == "sparse":
        g[rng.random((size, size)) < 0.7] = 0.0
        g[rng.integers(size), rng.integers(size)] = 1.0
    elif kind == "rank_one":
        g = np.outer(g[0], g[1].conj())
    elif kind == "scaled_identity":
        g = 10.0 ** rng.uniform(-3, 3) * np.eye(size)
    elif kind == "repeated":
        u, _, vh = np.linalg.svd(g)
        s = rng.choice([0.0, 1.0, 2.0], size)
        s[0] = 2.0  # never the zero matrix
        g = (u * s) @ vh
    return g


@pytest.mark.parametrize("kind", ("dense", "sparse", "rank_one", "scaled_identity", "repeated"))
def test_reordered_entropy_lower_holds_at_q_one(kind):
    # S_1(Y) >= S_2(Y) = ln(Ly^2 / |X|_F^2) >= ln(Ly^2 / (x1 Lx)), since a
    # reordering keeps |X|_F and sum s_i^2 <= s1 sum s_i.
    for i in range(120):
        rng = rng_substream(69, i)
        size = 2 + i % 8
        x = _adversarial_matrix(kind, size, rng)
        (rec,) = reordered_entropy_bounds(x, rng.permutation(size * size), 1.0)
        assert rec.id == "reordered_entropy_lower"
        assert rec.slack >= -1e-10, (kind, i, rec)


def test_reordered_entropy_bounds_hold_for_reshuffle():
    for i in range(60):
        rng = rng_substream(63, i)
        n = int(rng.integers(2, 4))
        x = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        for q in (1.5, 2.0, 4.0, math.inf):
            recs = reordered_entropy_bounds(x, reshuffle_permutation(n), q)
            assert [r.id for r in recs] == [
                "reordered_entropy_lower",
                "reordered_entropy_upper",
            ]
            for r in recs:
                assert r.slack >= -1e-10, (i, q, r)


# Each self/cross row of the table as a row of LEMMA_ROWS, applied with X the
# superoperator S and Y its reshuffle, the Choi matrix D, or the other way round.
CHANNEL_LEMMAS = {
    "receiver_self_lower": ("S", "spectral_entropy_lower"),
    "map_self_lower": ("D", "spectral_entropy_lower"),
    "receiver_cross_lower": ("D", "reordered_entropy_lower"),
    "map_cross_lower": ("S", "reordered_entropy_lower"),
    "receiver_self_upper": ("S", "spectral_entropy_upper"),
    "map_self_upper": ("D", "spectral_entropy_upper"),
    "receiver_cross_upper": ("D", "reordered_entropy_upper"),
    "map_cross_upper": ("S", "reordered_entropy_upper"),
}


@pytest.mark.parametrize("q", (1.0, 1.5, 2.0, math.inf))
@pytest.mark.parametrize("n", (2, 3))
def test_the_self_and_cross_rows_are_the_lemma_rows(n, q):
    # at q = 1 only the lower rows apply, on the table as in lemma_columns
    rngs = rng_substreams(68 + n, range(16))
    cptp, _ = random_cptp_stack(n, [1 + i % (n * n) for i in range(8)], rngs[:8])
    bistochastic, _ = random_bistochastic_stack(n, [1 + i % 3 for i in range(8)], rngs[8:])
    table = [b for b in TABLE if b.id in CHANNEL_LEMMAS and b.applies(q)]
    rows = [row for row in bounds.LEMMA_ROWS if row.applies(q)]
    lemma_ids = [row.id for row in rows]
    assert [b.id for b in table] == list(CHANNEL_LEMMAS)[: 2 * len(rows)]
    for stack in (cptp, bistochastic):
        sigma = {
            "S": np.linalg.svd(stack.superop, compute_uv=False),
            "D": np.linalg.svd(stack.choi, compute_uv=False),
        }
        lemma = {
            "S": bounds.lemma_columns(sigma["S"], sigma["D"], q),
            "D": bounds.lemma_columns(sigma["D"], sigma["S"], q),
        }
        *got, errors = bounds.table_columns(stack, q, table)
        assert all(e is None for e in errors.flat)
        for j, b in enumerate(table):
            x, lemma_id = CHANNEL_LEMMAS[b.id]
            k = lemma_ids.index(lemma_id)
            assert b.relation == rows[k].relation
            for want, have in zip(lemma[x], got):  # lhs, rhs and slack
                np.testing.assert_allclose(have[:, j], want[:, k], 0, 1e-12, err_msg=b.id)


# ---------------------------------------------------------------------------
# channel-level bounds


def test_channel_entropy_bounds_ids_by_order():
    ch = depolarizing(2, 0.4)
    assert _report_ids(RANGE_IDS, 1.0) == [
        "map_cross_lower",
        "map_self_lower",
        "receiver_cross_lower",
        "receiver_self_lower",
    ]
    for rid in RANGE_IDS[4:]:  # q/(q-1) and F_max diverge at q = 1
        with pytest.raises(ValueError, match=rid):
            record(ch, rid, 1.0)
    ids2 = set(_report_ids(RANGE_IDS, 2.0))
    assert ids2 == {
        "receiver_self_lower",
        "map_self_lower",
        "receiver_cross_lower",
        "map_cross_lower",
        "receiver_self_upper",
        "map_self_upper",
        "receiver_cross_upper",
        "map_cross_upper",
    }


def test_channel_entropy_bounds_tight_at_infinite_order():
    # at q = inf the self-bounds collapse to exact equalities
    for i in range(10):
        ch = _random_channel(i)
        recs = {rid: record(ch, rid, math.inf) for rid in RANGE_IDS}
        assert abs(recs["receiver_self_lower"].slack) < 1e-10
        assert abs(recs["receiver_self_upper"].slack) < 1e-10
        assert abs(recs["map_self_lower"].slack) < 1e-10
        assert abs(recs["map_self_upper"].slack) < 1e-10


def test_channel_entropy_bounds_random_sweep():
    for i in range(80):
        ch = _random_channel(i)
        for q in (1.0, 1.5, 2.0, 4.0, math.inf):
            for rid in _report_ids(RANGE_IDS, q):
                r = record(ch, rid, q)
                assert r.satisfied, (i, q, r)
                assert r.slack >= -CHECK_TOL


def test_sigma1_bound_saturations():
    r = record(spontaneous_emission(), "sigma1_vs_tau1", 1.0)
    assert abs(r.lhs - math.sqrt(2.0)) < 1e-12
    assert abs(r.slack) < 1e-12
    r = record(identity_channel(2), "sigma1_vs_tau1", 1.0)
    assert abs(r.slack) < 1e-12  # sigma1 = 1 = sqrt(2 * 1/2)
    for i in range(30):
        assert record(_random_channel(i), "sigma1_vs_tau1", 1.0).satisfied


def test_entropy_sum_lower_saturations_at_q1():
    for ch in (
        identity_channel(2),
        maximally_depolarizing(2),
        coarse_graining(2),
        spontaneous_emission(),
        identity_channel(3),
        coarse_graining(4),
    ):
        r = record(ch, "entropy_sum_lower", 1.0)
        assert r.relation == ">="
        assert abs(r.slack) < 1e-12, (ch.label, r)


def test_entropy_sum_lower_random_sweep():
    for i in range(60):
        ch = _random_channel(i)
        for q in (1.0, 2.0, 3.0, math.inf):
            assert record(ch, "entropy_sum_lower", q).satisfied


def test_receiver_upper_value_limits():
    # identity channel saturates the majorization bound at every order
    for n in (2, 3):
        ch = identity_channel(n)
        for q in (1.0, 2.0, 7.0, math.inf):
            r = record(ch, "receiver_majorization_upper", q)
            assert abs(r.slack) < 1e-12, (n, q, r)
    # the q -> 1 window joins the generic branch at its edge
    near = receiver_upper_value(2.5, 2, 1.0 + 0.999e-6)
    generic = receiver_upper_value(2.5, 2, 1.0 + 1.001e-6)
    assert abs(near - generic) < 1e-9
    assert abs(near - receiver_upper_value(2.5, 2, 1.01)) < 5e-3
    # infinite order reduces to ln(lambda); lam = 1 forces zero entropy
    assert abs(receiver_upper_value(3.0, 2, math.inf) - math.log(3.0)) < 1e-15
    assert receiver_upper_value(1.0, 2, 2.0) == 0.0
    assert receiver_upper_value(1.0 - 1e-12, 2, 1.0) == 0.0
    with pytest.raises(ValidationError):
        receiver_upper_value(0.5, 2, 2.0)
    with pytest.raises(ValueError):
        receiver_upper_value(2.0, 2, -0.5)


def test_one_dimensional_channel_bounds_raise_no_warning():
    # N = 1 leaves no weight to share out: (lam - 1) / (N^2 - 1) divided by
    # zero, and under the error::RuntimeWarning filter that was an _error record
    ch = from_superoperator(np.ones((1, 1)))
    for q in (1.0, 2.0, math.inf):
        assert receiver_upper_value(1.0, 1, q) == 0.0
        ids = [r.id for r in evaluate_all(ch, q).records]
        assert ids and not [rid for rid in ids if rid.endswith("_error")], (q, ids)


def test_receiver_upper_value_is_continuous_at_infinite_order():
    # lambda = 6 > N^2 makes the (lambda-1)/(N^2-1) weights the largest; the
    # q = inf value is their min-entropy, not ln(lambda) = 1.792
    assert abs(receiver_upper_value(6.0, 2, math.inf) - receiver_upper_value(6.0, 2, 1e6)) <= 1e-6


def test_receiver_upper_value_at_order_zero_counts_the_support():
    # lambda = 1 leaves one nonzero weight, so S_0 = ln 1, not 2 ln N
    for n in (2, 3, 8):
        assert receiver_upper_value(1.0, n, 0.0) == 0.0
    assert receiver_upper_value(maximally_depolarizing(3).lambda_phi, 3, 0.0) == 0.0


def test_receiver_upper_value_rejects_trace_norm_below_one():
    # a trace-preserving superoperator has sigma1 >= 1, so a trace norm below
    # 1 is an invalid input: a ValidationError, which the CLI reports as exit 2
    for q in (1.0, 2.0, math.inf):
        with pytest.raises(ValidationError, match="trace norm"):
            receiver_upper_value(1.0 - 1e-6, 3, q)
    assert receiver_upper_value(1.0 - 1e-10, 3, 2.0) == 0.0


def test_receiver_upper_value_rejects_a_non_finite_trace_norm():
    # inf gave nan with a RuntimeWarning, and nan was reported as below 1
    for lam in (math.inf, math.nan):
        with pytest.raises(ValidationError, match=f"^trace norm {lam} is not finite$"):
            receiver_upper_value(lam, 2, 2.0)
    with pytest.raises(ValidationError, match="^trace norm nan is not finite$"):
        receiver_upper_value(np.array([2.0, math.nan]), 2, 2.0)


def test_receiver_upper_random_sweep():
    for i in range(60):
        ch = _random_channel(i)
        for q in (0.5, 1.0, 2.0, 5.0, math.inf):
            assert record(ch, "receiver_majorization_upper", q).satisfied


def test_collision_identity_on_random_channels():
    for i in range(200):
        r = record(_random_channel(i), "collision_identity", 2.0)
        assert r.relation == "=="
        assert r.slack >= -1e-10, (i, r)


def test_collision_identity_exact_for_reshuffle_invariant():
    # superoperator == Choi makes both collision entropies literally equal
    for i in range(20):
        ch = random_reshuffle_invariant(rng_substream(64, i))
        for q in (1.0, 2.0, 3.0):
            assert abs(map_entropy(ch, q) - receiver_entropy(ch, q)) < 1e-10
        assert record(ch, "collision_identity", 2.0).slack >= -1e-10


def test_collision_sum_upper_saturating_mixture():
    # alpha = 1/(N+1) mixes identity and full depolarizing into the extremal point
    for n in (2, 3, 4):
        r = record(depolarizing(n, 1.0 / (n + 1)), "collision_sum_upper", 2.0)
        assert abs(r.rhs - 2.0 * math.log(n * (n + 1) / 2.0)) < 1e-12
        assert abs(r.slack) < 1e-12, (n, r)
    for i in range(60):
        assert record(_random_channel(i), "collision_sum_upper", 2.0).satisfied


def test_map_entropy_lower_saturated_at_collision_order():
    # at q = 2 the bound coincides with the collision identity: slack is zero
    for i in range(50):
        r = record(_random_channel(i), "map_from_receiver_lower", 2.0)
        assert abs(r.slack) < 1e-9, (i, r)


def test_map_entropy_lower_random_sweep():
    for i in range(50):
        ch = _random_channel(i)
        for q in (1.0, 1.5, 3.0, math.inf):
            assert record(ch, "map_from_receiver_lower", q).satisfied


def test_interval_bounds_values():
    ch = interval_channel(1.0, 0.0)  # orthogonal endpoints
    recs = {rid: record(ch, rid, 1.0) for rid in INTERVAL_IDS}
    assert abs(recs["interval_receiver_upper"].slack) < 1e-12
    assert abs(recs["interval_map_lower"].slack) < 1e-12
    ch = interval_channel(0.4, 0.9, 0.3, 2.0)
    for rid in INTERVAL_IDS:
        assert record(ch, rid, 1.0).satisfied
    assert record(ch, "interval_receiver_upper", 1.0).slack > 1e-3  # overlapping endpoints: strict


def test_output_entropy_sandwich_constant_channels():
    rng = rng_stream(65)
    for n in (2, 3):
        xi = random_density(n, rng)
        ch = complete_contraction(xi)
        for q in (1.0, 2.0):
            recs = {rid: record(ch, rid, q) for rid in _report_ids(SANDWICH_IDS, q)}
            up = recs["map_output_upper"]
            assert abs(up.slack) < 1e-9, (n, q, up)
            assert abs(map_entropy(ch, q) - math.log(n) - output_entropy(ch, q)) < 1e-9
            if q == 1.0:
                assert recs["map_output_lower"].satisfied
            assert recs["map_rank_lower"].satisfied


def test_output_entropy_sandwich_identity_channel():
    recs = {rid: record(identity_channel(2), rid, 1.0) for rid in SANDWICH_IDS}
    assert abs(recs["map_output_lower"].slack) < 1e-12  # 0 == ln2 - ln2
    assert abs(recs["map_rank_lower"].slack) < 1e-12
    assert abs(recs["map_output_upper"].rhs - 2.0 * LN2) < 1e-12


def test_output_entropy_sandwich_orders():
    ids1 = _report_ids(SANDWICH_IDS, 1.0)
    assert ids1 == ["map_output_lower", "map_output_upper", "map_rank_lower"]
    ids2 = _report_ids(SANDWICH_IDS, 2.0)
    assert ids2 == ["map_output_upper", "map_rank_lower"]
    with pytest.raises(ValueError):
        record(depolarizing(2, 0.3), "map_output_upper", -1.0)
    with pytest.raises(ValueError, match="map_output_lower"):
        record(depolarizing(2, 0.3), "map_output_lower", 2.0)


def test_output_entropy_sandwich_random_sweep():
    for i in range(40):
        ch = _random_channel(i)
        for q in (0.0, 1.0, 2.0, math.inf):
            for rid in SANDWICH_IDS if q == 1.0 else SANDWICH_IDS[1:]:
                r = record(ch, rid, q)
                assert r.satisfied, (i, q, r)


# ---------------------------------------------------------------------------
# reading the table by id

# Orders on both sides of every predicate edge: 1 and the Shannon window.
TABLE_ORDERS = (0.0, 0.5, 1.0 - 5e-7, 1.0, 1.0 + 5e-7, 1.5, 2.0, math.inf)


@functools.lru_cache(maxsize=None)
def _table_channels():
    return (
        random_interval_channel(rng_substream(66, 0)),
        random_cptp(3, 9, rng_substream(66, 1)),
        random_cptp(8, 8, rng_substream(66, 2)),
    )


@functools.lru_cache(maxsize=None)
def _report_records(i, q):
    """Records of table channel ``i`` from the bound report and the region
    classifier, by id (none below q = 1, where both reject the order)."""
    if q < 1.0:
        return {}
    ch = _table_channels()[i]
    recs = {r.id: r for r in evaluate_all(ch, q).records}
    recs.update((r.id, r) for r in classify_region(ch, q).criteria)
    return recs


@pytest.mark.parametrize("q", TABLE_ORDERS)
@pytest.mark.parametrize("bound", TABLE, ids=lambda b: b.id)
def test_record_matches_the_report_and_the_row_predicate(bound, q):
    for i, ch in enumerate(_table_channels()):
        if not (bound.applies(q) and ch.stack.interval >= bound.interval):
            with pytest.raises(ValueError, match=bound.id):
                record(ch, bound.id, q)
            continue
        rec = record(ch, bound.id, q)
        assert rec.id == bound.id and math.isfinite(rec.slack)
        if bound.id in _report_records(i, q):
            assert repr(rec) == repr(_report_records(i, q)[bound.id])  # bit for bit


def test_record_rejects_unknown_ids_and_orders():
    ch = depolarizing(2, 0.3)
    with pytest.raises(KeyError):
        record(ch, "no_such_bound", 2.0)
    for q in (-1.0, math.nan):
        with pytest.raises(ValueError):
            record(ch, "map_output_upper", q)


def test_record_rejects_an_interval_row_on_a_channel_that_is_no_interval_map():
    # evaluate_all leaves the row out for the identity, so record must too
    with pytest.raises(ValueError, match="does not apply"):
        record(identity_channel(2), "interval_map_lower", 1.0)


@functools.lru_cache(maxsize=None)
def _record_channels():
    rng = rng_substream(67, 3)  # the mixed endpoint states of the last channel
    return (
        identity_channel(2),
        depolarizing(3, 0.4),
        coarse_graining(2),
        spontaneous_emission(),
        random_cptp(2, 4, rng_substream(67, 0)),
        random_bistochastic(3, 2, rng_substream(67, 1)),
        random_pauli_channel(rng_substream(67, 2)),
        interval_channel(0.4, 0.9, 0.3, 2.0),
        interval_channel_general(
            random_density(2, rng), random_density(2, rng), label="interval(random mixed)"
        ),
    )


@pytest.mark.parametrize("q", (1.0, 1.5, 2.0, math.inf))
def test_record_gives_the_report_rows_and_rejects_every_other_row(q):
    for ch in _record_channels():
        report = {r.id: r for r in evaluate_all(ch, q).records}
        for bound in TABLE:
            if bound.separable:
                continue
            if bound.id in report:
                assert repr(record(ch, bound.id, q)) == repr(report[bound.id])  # bit for bit
            else:
                with pytest.raises(ValueError, match="does not apply"):
                    record(ch, bound.id, q)


# ---------------------------------------------------------------------------
# reports


def test_evaluate_all_ids_match_declared_set():
    ch = depolarizing(2, 0.6)
    for q in (1.0, 1.5, 2.0, math.inf):
        report = evaluate_all(ch, q)
        assert [r.id for r in report.records] == applicable_bound_ids(q)
        assert report.all_satisfied
    ch = interval_channel(0.2, 0.7)
    report = evaluate_all(ch, 1.0)
    assert [r.id for r in report.records] == applicable_bound_ids(1.0, include_interval=True)


def test_evaluate_all_aggregates_and_serialization():
    report = evaluate_all(depolarizing(2, 0.25), 2.0)
    agg = report.aggregates
    assert agg["f_min"] == 2.0 and agg["f_max"] == 2.0 and agg["g_min"] == 1.0
    assert abs(agg["lambda_phi"] - 1.75) < 1e-12
    text = json.dumps(report.to_dict(), sort_keys=True)
    assert "collision_identity" in text
    rows = report.csv_rows()
    assert len(rows) == len(report.records)
    assert all(len(row) == 7 for row in rows)
    rec = report.record("collision_identity")
    assert rec.relation == "=="
    with pytest.raises(KeyError):
        report.record("no_such_bound")


def test_evaluate_all_json_handles_infinite_order():
    report = evaluate_all(depolarizing(2, 0.25), math.inf)
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["q"] == "inf"


def test_evaluate_all_flags_invalid_map():
    bad = from_superoperator(1.5 * np.eye(4, dtype=complex), permissive=True)
    report = evaluate_all(bad, 2.0)
    assert not report.all_satisfied
    assert not report.record("collision_identity").satisfied


def test_evaluate_all_reports_a_failing_aggregate():
    # a permissive map whose Choi matrix is not Hermitian has no d1
    s = np.eye(4, dtype=complex)
    s[1, 2] = 0.5
    agg = evaluate_all(from_superoperator(s, permissive=True), 2.0).aggregates
    assert "d1" not in agg
    assert agg["d1_error"].startswith("ValidationError: ")
    assert all(isinstance(v, str) or math.isfinite(v) for v in agg.values())


def test_evaluate_all_turns_a_raising_bound_into_an_error_record(monkeypatch):
    def boom(stack, q):
        raise FloatingPointError("planted failure")

    ch = depolarizing(2, 0.5)
    clean = evaluate_all(ch, 2.0)
    table = tuple(
        dataclasses.replace(b, rhs=boom) if b.id == "map_rank_lower" else b for b in bounds.TABLE
    )
    monkeypatch.setattr(bounds, "TABLE", table)
    report = evaluate_all(ch, 2.0)
    error = report.record("map_rank_lower_error")
    assert math.isnan(error.lhs) and math.isnan(error.rhs) and math.isnan(error.slack)
    assert error.relation == ">=" and error.satisfied is False
    assert error.citation == "FloatingPointError: planted failure"
    others = [r for r in report.records if r is not error]
    assert others == [r for r in clean.records if r.id != "map_rank_lower"]
    assert [r.id for r in report.records] == sorted(r.id for r in report.records)


def test_evaluate_all_random_sweep():
    for i in range(40):
        ch = _random_channel(i)
        for q in (1.0, 2.0, math.inf):
            assert evaluate_all(ch, q).all_satisfied, (i, q)


# ---------------------------------------------------------------------------
# variational search


def _amplitude_damping(dim, gamma):
    """Each excited level decays to the first basis state with probability ``gamma``."""
    keep = np.diag([1.0] + [math.sqrt(1.0 - gamma)] * (dim - 1)).astype(complex)
    decay = [np.zeros((dim, dim), dtype=complex) for _ in range(dim - 1)]
    for k, a in enumerate(decay, start=1):
        a[0, k] = math.sqrt(gamma)
    return from_kraus([keep, *decay])


def test_sigma1_variational_exact_on_known_channels():
    for ch in (identity_channel(2), spontaneous_emission(), depolarizing(2, 0.35)):
        est = sigma1_variational(ch, budget=100, seed=3)
        assert abs(est - ch.sigma1) < 1e-9, ch.label
    # On a CP map the warm start alone attains sigma1 (Perron-Frobenius for
    # Phi^dag Phi), so a single random probe leaves the estimate exact.
    for n in range(2, 9):
        rng = rng_substream(97, n)
        channels = [random_cptp(n, env, rng) for env in (1, n, n * n)] + [
            random_bistochastic(n, 3, rng),
            coarse_graining(n),
            spontaneous_emission(n),
            _amplitude_damping(n, 0.3),
        ]
        for ch in channels:
            est = sigma1_variational(ch, budget=1, seed=n)
            assert abs(est - ch.sigma1) <= 1e-12, (n, ch.label, est, ch.sigma1)


def test_sigma1_variational_is_one_sided():
    for i in range(50):
        ch = _random_channel(i)
        est = sigma1_variational(ch, budget=300, seed=i)
        assert est <= ch.sigma1 + 1e-9, (i, est, ch.sigma1)


def _search_stacks():
    """(stack, budget) pairs: random CPTP stacks, on which the warm start is
    exact, and random maps, on which the probes decide most estimates, at
    N = 2 and 3 and spanning several probe blocks; and the permissive
    ``1.5 * id`` map among channels."""
    out = []
    for n, budget in ((2, 300), (2, 2000), (3, 100)):
        rngs = [rng_substream(41 + n, i) for i in range(7)]
        stack, _ = random_cptp_stack(n, [(1, n, n * n)[i % 3] for i in range(7)], rngs)
        out.append((stack, budget))
    for n, budget in ((2, 300), (3, 100)):
        rng = rng_stream(77 + n)
        maps = rng.standard_normal((7, n * n, n * n)) + 1j * rng.standard_normal((7, n * n, n * n))
        out.append((ChannelStack(maps, n, require_cptp=False), budget))
    maps = [1.5 * np.eye(4), identity_channel(2).superop, spontaneous_emission().superop]
    out.append((ChannelStack(np.array(maps), 2, require_cptp=False), 300))
    return out


def _loop_search(s, n, budget, seed):
    """The search on one superoperator ``s``, probes as complex Gram matrices."""
    _, _, vh = np.linalg.svd(s)
    top = vh[0].conj().reshape(n, n)
    best = -math.inf
    for m in (top + top.conj().T, 1j * (top - top.conj().T)):
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        absm = (v * np.abs(w)) @ v.conj().T
        if absm.trace().real > 1e-12:
            vec = absm.reshape(-1)
            best = max(best, np.linalg.norm(s @ vec) / np.linalg.norm(vec))
    rng = rng_stream(seed)
    g = rng.standard_normal((budget, n, n)) + 1j * rng.standard_normal((budget, n, n))
    vecs = (g @ g.conj().transpose(0, 2, 1)).reshape(budget, n * n)
    probes = np.linalg.norm(vecs @ s.T, axis=1) / np.linalg.norm(vecs, axis=1)
    return best, probes.max()


def test_sigma1_variational_rejects_bad_budget():
    with pytest.raises(ValueError):
        sigma1_variational(identity_channel(2), budget=0)
    stack, _ = _search_stacks()[0]
    for budget in (0, -3):
        with pytest.raises(ValueError, match="budget"):
            sigma1_search(stack, budget, range(len(stack)))


def test_sigma1_search_rows_equal_one_channel_searches():
    # a block holds three rows at N = 2, budget 300 and four at N = 3, budget
    # 100, so those 7-row stacks span three and two blocks
    rows = [bounds.PROBE_BLOCK_BYTES // (16 * n * n * b) for n, b in ((2, 300), (3, 100))]
    assert rows == [3, 4]
    for stack, budget in _search_stacks():
        seeds = [1000 + 7 * r for r in range(len(stack))]
        est = sigma1_search(stack, budget, seeds)
        assert est.shape == (len(stack),)
        for r in range(len(stack)):
            assert est[r] == sigma1_variational(stack.channel(r), budget, seeds[r]), (budget, r)
            assert est[r] <= stack.sigma1[r] + 1e-9


def test_sigma1_search_matches_a_loop_over_complex_probes():
    # the stacked search rounds its probes differently; 16 ulps of sigma1 is
    # 8 times the largest gap seen on random maps at N = 2, 3 and 4
    probes_won = 0
    for stack, budget in _search_stacks():
        seeds = [500 + r for r in range(len(stack))]
        est = sigma1_search(stack, budget, seeds)
        for r in range(len(stack)):
            warm, probe = _loop_search(stack.superop[r], stack.dim, budget, seeds[r])
            tol = 16 * np.finfo(float).eps * stack.sigma1[r]
            assert abs(est[r] - max(warm, probe)) <= tol, (stack.dim, budget, r)
            probes_won += probe > warm + tol
    # the probes decide 12 of the 14 random-map rows, so they are compared too
    assert probes_won >= 10


def test_sigma1_search_takes_one_seed_per_channel():
    stack, _ = _search_stacks()[0]
    for seeds in ([], list(range(len(stack) - 1)), list(range(len(stack) + 1))):
        with pytest.raises(ValueError, match="seeds"):
            sigma1_search(stack, 10, seeds)
