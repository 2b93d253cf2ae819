import json
import math

import numpy as np
import pytest

from qchan.bounds import record
from qchan.channels import ChannelStack, from_superoperator
from qchan.separability import (
    PPT_RTOL,
    REALIGNMENT_TOL,
    classify_region,
    classify_regions,
    partial_transpose,
    ppt_test,
    realignment_test,
    separable_criteria,
)
from qchan.zoo import (
    coarse_graining,
    depolarizing,
    identity_channel,
    maximally_depolarizing,
    random_bistochastic,
    random_cptp,
    random_pauli_channel,
    rng_substream,
    spontaneous_emission,
)

LN2 = math.log(2.0)


def _qubit_channel(i):
    rng = rng_substream(71, i)
    kind = i % 4
    if kind == 0:
        return random_cptp(2, 2, rng)
    if kind == 1:
        return random_cptp(2, 4, rng)
    if kind == 2:
        return random_pauli_channel(rng)
    return random_bistochastic(2, i % 3 + 1, rng)


# ---------------------------------------------------------------------------
# partial transpose


def test_partial_transpose_entry_map():
    m = np.arange(16, dtype=float).reshape(4, 4)
    out = partial_transpose(m)
    for k in range(2):
        for l in range(2):
            for mm in range(2):
                for n in range(2):
                    assert out[2 * k + n, 2 * mm + l] == m[2 * k + l, 2 * mm + n]


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(73)
    for n in (2, 3):
        m = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        assert np.array_equal(partial_transpose(partial_transpose(m, n), n), m)


def test_partial_transpose_of_max_entangled_is_swap():
    d = identity_channel(2).choi  # outer(vec 1, vec 1)
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[2 * a + b, 2 * b + a] = 1.0
    assert np.array_equal(partial_transpose(d, 2), swap)


def test_partial_transpose_rejects_bad_shapes():
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((6, 6)))  # side is not a perfect square
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((4, 4)), block=3)


# ---------------------------------------------------------------------------
# the two structural tests


def test_ppt_values_on_named_channels():
    min_eig, ppt = ppt_test(identity_channel(2))
    assert abs(min_eig + 0.5) < 1e-12 and not ppt
    min_eig, ppt = ppt_test(maximally_depolarizing(2))
    assert abs(min_eig - 0.25) < 1e-12 and ppt
    min_eig, ppt = ppt_test(depolarizing(2, 1.0 / 3.0))  # exact boundary
    assert abs(min_eig) < 1e-12 and ppt
    assert ppt_test(coarse_graining(2))[1]
    assert ppt_test(spontaneous_emission())[1]


def test_ppt_threshold_in_the_depolarizing_family():
    assert not ppt_test(depolarizing(2, 0.34))[1]
    assert ppt_test(depolarizing(2, 0.32))[1]


def test_ppt_needs_hermitian_choi():
    s = np.eye(4, dtype=complex)
    s[0, 1] = 1.0
    bad = from_superoperator(s, permissive=True)
    with pytest.raises(ValueError):
        ppt_test(bad)


def test_realignment_values_on_named_channels():
    value, certified = realignment_test(identity_channel(2))
    assert abs(value - 2.0) < 1e-12 and certified
    value, certified = realignment_test(maximally_depolarizing(2))
    assert abs(value - 0.5) < 1e-12 and not certified
    value, certified = realignment_test(depolarizing(2, 1.0 / 3.0))
    assert abs(value - 1.0) < 1e-12 and not certified  # boundary proves nothing


# ---------------------------------------------------------------------------
# entropic criteria


def test_criteria_identity_channel_violations():
    recs = {r.id: r for r in separable_criteria(identity_channel(2), 2.0)}
    assert set(recs) == {"separable_map_lower", "separable_receiver_upper", "separable_ratio"}
    assert not recs["separable_map_lower"].satisfied
    assert abs(recs["separable_map_lower"].slack + 0.5 * LN2) < 1e-12
    assert not recs["separable_receiver_upper"].satisfied
    assert abs(recs["separable_receiver_upper"].slack + math.log(4.0 / 3.0)) < 1e-12
    assert not recs["separable_ratio"].satisfied


def test_criteria_boundary_channel_is_tight():
    # alpha = 1/3 sits on the separability boundary: two criteria saturate
    recs = {r.id: r for r in separable_criteria(depolarizing(2, 1.0 / 3.0), 2.0)}
    assert abs(recs["separable_receiver_upper"].slack) < 1e-12
    assert abs(recs["separable_ratio"].slack) < 1e-12
    assert all(r.satisfied for r in recs.values())


def test_criteria_hold_for_certified_separable_channels():
    for ch in (maximally_depolarizing(2), coarse_graining(2), spontaneous_emission()):
        for q in (1.0, 1.5, 2.0, math.inf):
            assert all(r.satisfied for r in separable_criteria(ch, q)), (ch.label, q)


def test_criteria_require_q_at_least_one():
    with pytest.raises(ValueError):
        separable_criteria(identity_channel(2), 0.5)


def _planted_failure(stack, q):
    raise FloatingPointError("planted failure")


def test_a_criterion_that_raises_gives_its_error_record(plant_criteria):
    plant_criteria(_planted_failure, ids={"separable_map_lower"})
    ch = identity_channel(2)
    rec = record(ch, "separable_map_lower", 2.0)
    assert rec.id == "separable_map_lower_error"
    assert math.isnan(rec.lhs) and math.isnan(rec.rhs) and math.isnan(rec.slack)
    assert not rec.satisfied and rec.citation == "FloatingPointError: planted failure"
    ids = ["separable_map_lower_error", "separable_receiver_upper", "separable_ratio"]
    verdict = classify_region(ch, 2.0)
    assert [r.id for r in verdict.criteria] == ids
    assert verdict.criteria[0].citation == rec.citation and math.isnan(verdict.criteria[0].slack)
    assert [r.id for r in separable_criteria(ch, 2.0)] == ids
    # the two criteria left still certify entanglement
    assert verdict.region == "A"
    with pytest.raises(KeyError):
        record(ch, "no_such_bound", 2.0)
    with pytest.raises(ValueError):
        record(ch, "separable_map_lower", 0.5)
    with pytest.raises(ValueError):
        classify_region(ch, 0.5)


@pytest.mark.parametrize(
    "rhs",
    [_planted_failure, lambda stack, q: np.full(len(stack), math.nan)],
    ids=["raises", "nan"],
)
def test_a_criterion_without_a_finite_slack_certifies_nothing(plant_criteria, rhs):
    plant_criteria(rhs)
    verdict = classify_region(maximally_depolarizing(2), 2.0)
    assert verdict.region == "C"
    assert not any(r.satisfied for r in verdict.criteria)
    # the identity fails the PPT test, and no criterion is left to certify it
    assert classify_region(identity_channel(2), 2.0).region == "B"
    pair = np.stack([identity_channel(2).superop, maximally_depolarizing(2).superop])
    assert classify_regions(ChannelStack(pair, 2), 2.0).tolist() == ["B", "C"]


# ---------------------------------------------------------------------------
# region classification


def test_classify_named_channels():
    assert classify_region(identity_channel(2), 2.0).region == "A"
    assert classify_region(maximally_depolarizing(2), 2.0).region == "C"
    assert classify_region(depolarizing(2, 1.0 / 3.0), 2.0).region == "C"
    assert classify_region(coarse_graining(2), 2.0).region == "C"
    assert classify_region(spontaneous_emission(), 2.0).region == "C"
    assert classify_region(depolarizing(2, 0.5), 2.0).region == "A"
    # entropic criteria do not care about the dimension cap on PPT
    assert classify_region(identity_channel(3), 2.0).region == "A"
    assert classify_region(maximally_depolarizing(3), 2.0).region == "indeterminate"


def test_verdict_invariants_over_random_channels():
    seen = set()
    for i in range(300):
        ch = _qubit_channel(i)
        v = classify_region(ch, 2.0)
        seen.add(v.region)
        assert v.region in {"A", "B", "C"}
        violated = any(not r.satisfied for r in v.criteria)
        assert (v.region == "A") == violated
        if v.region == "C":
            assert v.ppt_pass
        if v.region == "B":
            assert not v.ppt_pass and not violated
        assert v.realignment_pass == (ch.lambda_phi / ch.dim <= 1.0 + REALIGNMENT_TOL)
        assert len(v.criteria) == 3
    assert seen == {"A", "B", "C"}


def test_realignment_verdict_follows_its_certificate(monkeypatch):
    # L/N = 1 + 0.75e-9 lies inside the realignment tolerance: not certified
    # entangled, so the verdict must not report a failed realignment test
    planted = property(lambda self: np.full(len(self), 2.0 + 1.5e-9))
    monkeypatch.setattr(ChannelStack, "lambda_phi", planted)
    ch = depolarizing(2, 1.0 / 3.0)
    value, certified = realignment_test(ch)
    assert value == (2.0 + 1.5e-9) / 2.0 and not certified
    assert classify_region(ch, 2.0).realignment_pass


def test_entropic_violation_never_contradicts_ppt_separability():
    # region A claims entanglement, so it must never coincide with a
    # PPT (hence separable, at N = 2) rescaled Choi state
    for i in range(1000):
        v = classify_region(_qubit_channel(i), 2.0)
        if v.region == "A":
            assert not v.ppt_pass, i


def test_boundary_classification_is_stable_under_tiny_admixture():
    base = depolarizing(2, 1.0 / 3.0)
    other = identity_channel(2)
    eps = 1e-10
    mixed = from_superoperator((1.0 - eps) * base.superop + eps * other.superop, 2)
    assert classify_region(mixed, 2.0).region == "C"
    min_eig, ppt = ppt_test(mixed)
    assert ppt and min_eig >= -PPT_RTOL


def test_verdict_serializes_to_json():
    v = classify_region(depolarizing(2, 0.7), 2.0)
    doc = json.loads(json.dumps(v.to_dict()))
    assert set(doc) == {
        "realignment_value",
        "realignment_pass",
        "ppt_min_eigenvalue",
        "ppt_pass",
        "region",
        "criteria",
    }
    assert [r["id"] for r in doc["criteria"]] == [
        "separable_map_lower",
        "separable_receiver_upper",
        "separable_ratio",
    ]
