"""The batched scan path: channel stacks against the per-channel API.

A scan evaluates each chunk of channels as stacked spectra against the bound
table; the per-channel functions are the one-channel case of the same code.
These tests hold the two to bit-for-bit agreement, pin the scan to the output
of the last per-channel version, and plant failures inside stacks.
"""

import dataclasses
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchan import bounds, cli, entropy, separability
from qchan.channels import ChannelStack, ValidationError, isometry_superops
from qchan.cli import SCAN_BASE_COLUMNS, main
from qchan.entropy import check_probabilities, renyi, spectrum_probabilities
from qchan.matcore import hermitian_eigenvalues
from qchan.zoo import (
    depolarizing,
    haar_isometries,
    haar_isometry,
    random_cptp,
    random_cptp_stack,
    rng_substream,
)

GOLDEN = Path(__file__).parent / "data" / "parent_scan.txt"

# q = 1 + 5e-7 lies inside the Shannon window Q_ONE_WINDOW, 1 + 2e-6 just outside.
ORDERS = (1.0, 1.0 + 5e-7, 1.0 + 2e-6, 1.5, 2.0, math.inf)
QUBIT_ONLY = ("random_pauli", "random_interval", "random_reshuffle_invariant")
CASES = [(e, 2) for e in cli.ENSEMBLES] + [
    (e, n) for e in cli.ENSEMBLES if e not in QUBIT_ONLY for n in (3, 4, 8)
]


def _single_row(ensemble, dim, seed, index, n, q, ids) -> str:
    """A scan row rebuilt from the per-channel API."""
    ch = cli._ensemble_channel(ensemble, dim, seed, index, n)
    point = entropy.entropy_point(ch, q)
    slacks = {r.id: r.slack for r in bounds.evaluate_all(ch, q).records}
    row = [(ch.label or ensemble).replace(",", ";"), index, q, point.s_map, point.s_rec]
    row += [point.extras[key] for key in entropy.POINT_EXTRAS]
    row.append(separability.classify_region(ch, q).region)
    row += [slacks[cid] for cid in ids]
    return ",".join(cli._fmt(v) for v in row)


def _scan_lines(ensemble, dim, seed, n, q, rows_per_chunk=None) -> list[str]:
    """CSV lines of a scan, computed in chunks of ``rows_per_chunk`` rows."""
    budget = cli.SCAN_CHUNK_BYTES if rows_per_chunk is None else rows_per_chunk * 16 * dim**4
    with mock.patch.object(cli, "SCAN_CHUNK_BYTES", budget):
        table = bounds.applicable_bounds(q, interval=(ensemble == "random_interval"))
        columns = cli._scan_columns(ensemble, dim, seed, n, q, table)
    header = list(SCAN_BASE_COLUMNS) + [f"slack_{b.id}" for b in table]
    return [",".join(header)] + list(map(",".join, zip(*map(cli._fmt_column, columns))))


def _assert_rows_equal_single(lines, ensemble, dim, seed, n, q):
    header = lines[0].split(",")
    ids = [c[len("slack_"):] for c in header[len(SCAN_BASE_COLUMNS):]]
    assert ids == bounds.applicable_bound_ids(q, include_interval=ensemble == "random_interval")
    assert len(lines) == n + 1
    for index, line in enumerate(lines[1:]):
        expected = _single_row(ensemble, dim, seed, index, n, q, ids)
        assert line == expected, (ensemble, dim, q, index)


@pytest.mark.parametrize("ensemble,dim", CASES)
def test_scan_rows_equal_the_single_channel_api(ensemble, dim):
    # Four rows cover depolarizing at alpha = 0 and 1 (degenerate and zero
    # singular values) and random_cptp with env_dim = N at even indices
    # (rank-deficient Choi matrices); chunks of three rows put them in a
    # stack of three and a stack of one.
    n = 4 if dim < 8 else 2
    for q in ORDERS:
        lines = _scan_lines(ensemble, dim, 17, n, q, rows_per_chunk=3)
        _assert_rows_equal_single(lines, ensemble, dim, 17, n, q)


@settings(max_examples=25, deadline=None)
@given(
    case=st.sampled_from([c for c in CASES if c[1] < 8]),
    q=st.one_of(st.sampled_from(ORDERS), st.floats(min_value=1.0, max_value=12.0)),
    seed=st.integers(min_value=0, max_value=2**40),
    n=st.integers(min_value=1, max_value=6),
    rows_per_chunk=st.integers(min_value=1, max_value=7),
)
def test_stack_equals_single_property(case, q, seed, n, rows_per_chunk):
    ensemble, dim = case
    lines = _scan_lines(ensemble, dim, seed, n, q, rows_per_chunk)
    _assert_rows_equal_single(lines, ensemble, dim, seed, n, q)
    assert lines == _scan_lines(ensemble, dim, seed, n, q)


def _golden_blocks():
    blocks, argv, body = [], None, []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("# scan "):
            if argv:
                blocks.append((argv, body))
            argv, body = line[2:].split(), []
        elif not line.startswith("#"):
            body.append(line)
    blocks.append((argv, body))
    return blocks


def test_scan_matches_the_parent_golden_output(tmp_path):
    blocks = _golden_blocks()
    assert len(blocks) == 27
    for argv, expected in blocks:
        out = tmp_path / "scan.csv"
        assert main(argv + ["--out", str(out)]) == 0
        got = out.read_text(encoding="utf-8").splitlines()
        assert got[0] == expected[0], argv
        assert len(got) == len(expected), argv
        header = expected[0].split(",")
        for old, new in zip(expected[1:], got[1:]):
            for name, a, b in zip(header, old.split(","), new.split(",")):
                if name in ("label", "seed_index", "region"):
                    assert a == b, (argv, name)
                elif a != b:
                    x, y = float(a), float(b)
                    assert abs(x - y) <= 1e-12 * (1.0 + abs(x)), (argv, name, a, b)


# ---------------------------------------------------------------------------
# planted violations inside a stack


def _transpose_map() -> np.ndarray:
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    return swap  # positive and trace preserving, not completely positive


def test_planted_violations_inside_a_stack_name_the_first_bad_channel():
    good = [random_cptp(2, 2, rng_substream(71, i)).superop for i in range(6)]
    stack = np.array(good)
    assert ChannelStack(stack, 2).cp.all()

    stack[2] = _transpose_map()
    stack[4] = 1.5 * np.eye(4)  # completely positive, not trace preserving
    with pytest.raises(ValidationError, match=r"^channel 2: CP fails"):
        ChannelStack(stack, 2)
    with pytest.raises(ValidationError, match=r"^channel 12: CP fails"):
        ChannelStack(stack, 2, index=range(10, 16))
    flags = ChannelStack(stack, 2, require_cptp=False)
    assert flags.cp.tolist() == [True, True, False, True, True, True]
    assert flags.tp.tolist() == [True, True, True, True, False, True]

    stack[2] = good[2]
    with pytest.raises(ValidationError, match=r"^channel 4: TP fails"):
        ChannelStack(stack, 2)
    stack[1] = 1.5 * np.eye(4)
    stack[3] = _transpose_map()
    with pytest.raises(ValidationError, match=r"^channel 1: TP fails"):
        ChannelStack(stack, 2)


def test_planted_isometry_violation_inside_a_stack():
    v = haar_isometries(8, 2, [rng_substream(72, i) for i in range(5)])
    isometry_superops(v, 2, 4)
    v[3] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match=r"^channel 3: matrix is not an isometry"):
        isometry_superops(v, 2, 4)


def test_random_cptp_stack_equals_random_cptp_bit_for_bit():
    envs = [2, 4, 2, 3, 4, 2, 1]
    stack, labels = random_cptp_stack(2, envs, [rng_substream(73, i) for i in range(7)])
    for i, env in enumerate(envs):
        ch = random_cptp(2, env, rng_substream(73, i))
        assert np.array_equal(stack.superop[i], ch.superop)
        assert np.array_equal(stack.choi_eigenvalues[i], ch.choi_eigenvalues)
        assert np.array_equal(stack.singular_values[i], ch.singular_values)
        assert labels[i] == ch.label
    assert np.array_equal(
        haar_isometries(6, 3, [rng_substream(74, 0)])[0], haar_isometry(6, 3, rng_substream(74, 0))
    )


def test_joined_stacks_keep_their_validated_arrays():
    parts = [depolarizing(3, a).stack for a in (0.0, 0.5, 1.0)]
    joined = ChannelStack.join(parts)
    assert len(joined) == 3
    for i, part in enumerate(parts):
        assert np.array_equal(joined.choi_eigenvalues[i], part.choi_eigenvalues[0])
        assert np.array_equal(joined.singular_values[i], part.singular_values[0])
    assert not joined.superop.flags.writeable
    with pytest.raises(ValueError):
        ChannelStack.join([depolarizing(2, 0.5).stack, depolarizing(3, 0.5).stack])


# ---------------------------------------------------------------------------
# a scan never writes a silent nan


def _patched_table(bound_id, **fields):
    return tuple(
        dataclasses.replace(b, **fields) if b.id == bound_id else b for b in bounds.TABLE
    )


def _scan_args(out):
    return ["scan", "--ensemble", "random_cptp", "--n", "12", "--q", "2", "--seed", "3",
            "--out", str(out)]


def test_scan_stops_on_a_failing_bound(tmp_path, capsys, monkeypatch):
    def boom(stack, q):
        raise FloatingPointError("planted failure")

    monkeypatch.setattr(bounds, "TABLE", _patched_table("map_rank_lower", rhs=boom))
    out = tmp_path / "scan.csv"
    assert main(_scan_args(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "map_rank_lower" in err[0] and "seed_index 0..11" in err[0]
    assert "planted failure" in err[0]
    assert not out.exists()
    # the per-channel report keeps the failure as an error record
    report = bounds.evaluate_all(depolarizing(2, 0.5), 2.0)
    assert not report.record("map_rank_lower_error").satisfied


def test_scan_names_the_row_of_a_non_finite_bound(tmp_path, capsys, monkeypatch):
    def nan_at_row_5(stack, q):
        return np.where(np.arange(len(stack)) == 5, math.nan, 0.0)

    monkeypatch.setattr(bounds, "TABLE", _patched_table("entropy_sum_lower", rhs=nan_at_row_5))
    assert main(_scan_args(tmp_path / "scan.csv")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "entropy_sum_lower" in err[0] and "seed_index 5 " in err[0]


# ---------------------------------------------------------------------------
# stacked helpers and the table


def test_stacked_spectrum_helpers_match_their_rows():
    rng = np.random.default_rng(75)
    spectra = rng.dirichlet(np.ones(9), size=5)
    spectra[1, 4:] = 0.0
    spectra[1] /= spectra[1].sum()
    probs = spectrum_probabilities(spectra)
    for q in (0.0, 0.5) + ORDERS:
        stacked = renyi(probs, q)
        assert stacked.shape == (5,)
        for i in range(5):
            assert stacked[i] == renyi(spectrum_probabilities(spectra[i]), q)
    bad = probs.copy()
    bad[3, 0] += 1e-6
    with pytest.raises(ValueError, match="^row 3: weights sum"):
        check_probabilities(bad)
    spectra[2, 0] = -1e-3
    with pytest.raises(ValidationError, match="^row 2: spectrum entry"):
        spectrum_probabilities(spectra, negative_tol=1e-9)


def test_stacked_hermitian_eigenvalues_name_the_bad_entry():
    rng = np.random.default_rng(76)
    g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = g + g.conj().transpose(0, 2, 1)
    w = hermitian_eigenvalues(h)
    for i in range(4):
        assert np.array_equal(w[i], hermitian_eigenvalues(h[i]))
    h[2, 0, 1] += 1.0
    with pytest.raises(ValueError, match="^stack entry 2: matrix is not Hermitian"):
        hermitian_eigenvalues(h)


def test_receiver_upper_value_is_elementwise():
    lam = np.array([1.0, 1.5, 2.5, 4.0])
    for q in (0.5,) + ORDERS:
        values = bounds.receiver_upper_value(lam, 2, q)
        assert [bounds.receiver_upper_value(x, 2, q) for x in lam] == pytest.approx(
            values.tolist(), abs=1e-15
        )


def test_report_ids_follow_the_table_near_one():
    # inside the Shannon window both the upper bounds (finite q/(q-1)) and
    # the q = 1 output bound apply; the declared ids must say so
    q = 1.0 + 5e-7
    ids = bounds.applicable_bound_ids(q)
    assert "map_output_lower" in ids and "map_self_upper" in ids
    report = bounds.evaluate_all(depolarizing(2, 0.4), q)
    assert [r.id for r in report.records] == ids
    assert report.all_satisfied
    assert "map_output_lower" not in bounds.applicable_bound_ids(1.0 + 2e-6)
    assert {b.id for b in bounds.TABLE if b.separable} == {
        r.id for r in separability.separable_criteria(depolarizing(2, 0.4), 2.0)
    }
