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

from qchan import bounds, cli, entropy, separability, zoo
from qchan.channels import Channel, ChannelStack, ValidationError, isometry_superops
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


def _row_channel(ensemble, dim, seed, index, n) -> Channel:
    """Scan row ``index`` drawn by the public per-channel sampler."""
    rng = rng_substream(seed, index)
    if ensemble == "random_cptp":
        return random_cptp(dim, dim if index % 2 == 0 else dim * dim, rng)
    if ensemble == "random_bistochastic":
        return zoo.random_bistochastic(dim, index % 4 + 1, rng)
    if ensemble == "depolarizing":
        return depolarizing(dim, index / (n - 1) if n > 1 else 0.0)
    return {
        "random_pauli": zoo.random_pauli_channel,
        "random_interval": zoo.random_interval_channel,
        "random_reshuffle_invariant": zoo.random_reshuffle_invariant,
    }[ensemble](rng)


def _single_row(ensemble, dim, seed, index, n, q, ids) -> str:
    """A scan row rebuilt from the per-channel API."""
    ch = _row_channel(ensemble, dim, seed, index, n)
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
    return [",".join(header)] + cli._csv_rows(columns)


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


# Each stack sampler next to its per-channel sampler, for rows i = 0..6.
KS = [1, 2, 3, 4, 2, 1, 3]
ALPHAS = [0.0, 0.25, 1.0, 0.5, 0.125, 1.0 / 3.0, 0.75]
SAMPLERS = {
    "random_cptp": (
        lambda rngs, index: random_cptp_stack(3, [3, 9, 1, 2, 9, 3, 4], rngs, index=index),
        lambda i, rng: random_cptp(3, [3, 9, 1, 2, 9, 3, 4][i], rng),
    ),
    "random_bistochastic": (
        lambda rngs, index: zoo.random_bistochastic_stack(3, KS, rngs, index=index),
        lambda i, rng: zoo.random_bistochastic(3, KS[i], rng),
    ),
    "random_pauli": (zoo.random_pauli_stack, lambda i, rng: zoo.random_pauli_channel(rng)),
    "random_interval": (zoo.random_interval_stack, lambda i, rng: zoo.random_interval_channel(rng)),
    "random_reshuffle_invariant": (
        zoo.random_reshuffle_invariant_stack,
        lambda i, rng: zoo.random_reshuffle_invariant(rng),
    ),
    "depolarizing": (
        lambda rngs, index: zoo.depolarizing_stack(4, ALPHAS),
        lambda i, rng: depolarizing(4, ALPHAS[i]),
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_stack_samplers_equal_their_per_channel_samplers(name):
    stack_sampler, single = SAMPLERS[name]
    index = range(100, 107)
    stack, labels = stack_sampler([rng_substream(73, i) for i in range(7)], index=index)
    assert len(stack) == len(labels) == 7
    for i in range(7):
        ch = single(i, rng_substream(73, i))
        assert np.array_equal(stack.superop[i], ch.superop)
        assert np.array_equal(stack.choi_eigenvalues[i], ch.choi_eigenvalues)
        assert np.array_equal(stack.singular_values[i], ch.singular_values)
        assert labels[i] == ch.label
        assert ch.stack.interval == stack.interval == (name == "random_interval")

    # A planted non-TP row is named by its index; depolarizing_stack takes
    # no index, so it names the position.
    real = zoo.ChannelStack

    def planted(superops, dim, **kwargs):
        superops = np.array(superops)
        superops[4] *= 1.5
        return real(superops, dim, **kwargs)

    where = 4 if name == "depolarizing" else 104
    with mock.patch.object(zoo, "ChannelStack", planted):
        with pytest.raises(ValidationError, match=rf"^channel {where}: TP fails"):
            stack_sampler([rng_substream(73, i) for i in range(7)], index=index)


def _reference_superop(name, i, rng):
    """Superoperator of row ``i`` by the formulas of the per-channel code
    the stacked kernels replaced: np.kron, one Kraus set's Gram product,
    scalar states."""
    if name == "random_bistochastic":
        superop = np.zeros((9, 9), dtype=complex)
        for w in rng.dirichlet(np.ones(KS[i])):
            u = haar_isometry(3, 3, rng)
            superop += w * np.kron(u, u.conj())
        return superop
    if name == "random_pauli":
        p = rng.dirichlet(np.ones(4))
        ops = np.array([np.sqrt(w) * s for w, s in zip(p, zoo.PAULI)])
        x = np.stack([a.reshape(-1) for a in ops], axis=1)  # columns vec(A_t)
        superop = (x @ x.conj().T).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        kron_sum = sum(np.kron(a, a.conj()) for a in ops)
        np.testing.assert_allclose(superop, kron_sum, rtol=0.0, atol=1e-15)
        return superop
    if name == "random_interval":
        a, b = rng.uniform(), rng.uniform()
        phases = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, 2.0 * np.pi)
        superop = np.zeros((4, 4), dtype=complex)
        for col, w, phase in ((0, a, phases[0]), (3, b, phases[1])):
            off = math.sqrt(w * (1.0 - w))
            superop[:, col] = [w, off * np.exp(1j * phase), off * np.exp(-1j * phase), 1.0 - w]
        return superop
    if name == "random_reshuffle_invariant":
        e1, e2, e3 = (float(x) for x in rng.dirichlet(np.ones(3)))
        base = np.array(
            [
                [(1.0 + e3) / 2.0, 0.0, 0.0, (1.0 - e3) / 2.0],
                [0.0, (e1 + e2) / 2.0, (e1 - e2) / 2.0, 0.0],
                [0.0, (e1 - e2) / 2.0, (e1 + e2) / 2.0, 0.0],
                [(1.0 - e3) / 2.0, 0.0, 0.0, (1.0 + e3) / 2.0],
            ],
            dtype=complex,
        )
        u = haar_isometry(2, 2, rng)
        w = np.kron(u, u.conj())
        return w @ base @ w.conj().T
    eye_vec = np.eye(4, dtype=complex).reshape(-1)
    return ALPHAS[i] * np.eye(16) + (1.0 - ALPHAS[i]) * np.outer(eye_vec / 4, eye_vec)


@pytest.mark.parametrize("name", sorted(set(SAMPLERS) - {"random_cptp"}))
def test_stack_kernels_keep_the_per_channel_arithmetic(name):
    # Same bits, not just close: scan bytes must not move when an ensemble
    # is drawn as a stack instead of one channel at a time.
    stack, _ = SAMPLERS[name][0]([rng_substream(78, i) for i in range(7)], index=range(7))
    for i in range(7):
        assert np.array_equal(stack.superop[i], _reference_superop(name, i, rng_substream(78, i)))


@pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
def test_a_scan_builds_no_channel_one_at_a_time(ensemble, tmp_path):
    calls = []
    real = Channel.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    out = tmp_path / "scan.csv"
    argv = ["scan", "--ensemble", ensemble, "--n", "9", "--q", "2", "--out", str(out)]
    with mock.patch.object(Channel, "__init__", counting):
        assert main(argv) == 0
        assert calls == []
        zoo.identity_channel(2)  # the counter sees a channel built on its own
    assert len(calls) == 1
    assert len(out.read_text(encoding="utf-8").splitlines()) == 10


def test_stack_rows_are_channels_that_share_its_spectra():
    stack, labels = random_cptp_stack(2, [2, 4, 1], [rng_substream(77, i) for i in range(3)])
    entropy.entropy_columns(stack, 2.0)
    with mock.patch.object(ChannelStack, "__init__", side_effect=AssertionError("validated")):
        rows = [stack.channel(i, label=labels[i]) for i in range(3)]
    for i, ch in enumerate(rows):
        assert ch.label == labels[i] and not ch.stack.interval and len(ch.stack) == 1
        for name in ChannelStack._VALIDATED:
            assert not getattr(ch.stack, name).flags.writeable, name
        with mock.patch("qchan.channels.np.linalg", wraps=np.linalg) as linalg:
            row = stack.channel(i)
            row.sigma1, row.singular_values, row.output_eigenvalues  # noqa: B018
        assert linalg.mock_calls == []
        fresh = Channel(stack.superop[i], 2, label=labels[i])
        for name in ("superop", "choi", "choi_eigenvalues", "singular_values",
                     "output_eigenvalues"):
            assert np.array_equal(getattr(ch, name), getattr(fresh, name)), name
        assert ch.sigma1 == fresh.sigma1 == stack.sigma1[i]
        assert ch.cp and ch.tp and ch.choi_psd_tol == fresh.choi_psd_tol
        assert entropy.entropy_point(ch, 2.0) == entropy.entropy_point(fresh, 2.0)
    assert np.array_equal(stack.channel(-1).superop, rows[2].superop)
    assert stack.channel().label is None
    with pytest.raises(IndexError):
        stack.channel(3)


@pytest.mark.parametrize("q", (1.0, 1.5, 2.0, math.inf))
def test_interval_stack_rows_report_as_their_channels(q):
    # a row view of an interval stack gets the interval rows of the report
    stack, _ = zoo.random_interval_stack(zoo.rng_substreams(79, range(20)))
    params = zoo.rng_stream(80).uniform(size=(20, 4)) * [1.0, 1.0, 2 * math.pi, 2 * math.pi]
    for i in range(20):
        ch = zoo.interval_channel(*params[i])
        pairs = (
            (stack.channel(i), zoo.random_interval_channel(rng_substream(79, i))),
            (ch.stack.channel(label="x"), ch),
        )
        for row, single in pairs:
            got, want = (bounds.evaluate_all(c, q).records for c in (row, single))
            assert [r.id for r in got] == bounds.applicable_bound_ids(q, include_interval=True)
            assert repr(got) == repr(want)  # bit for bit


def test_interval_stacks_are_checked():
    superops = np.array([zoo.interval_channel(0.3, 0.8, 0.5, 1.7).superop] * 3)
    assert ChannelStack(superops, 2, interval=True).interval
    assert not ChannelStack(superops, 2).interval
    superops[1, 2, 1] = 1e-300  # in the column of |0><1|
    with pytest.raises(ValueError, match="interval"):
        ChannelStack(superops, 2, interval=True)
    # N = 3 coarse graining has zero superoperator columns 1 and 2 as well
    with pytest.raises(ValueError, match="interval"):
        ChannelStack(zoo.coarse_graining(3).superop[None], 3, interval=True)

    rng = zoo.rng_stream(81)
    pure = zoo.random_interval_stack(zoo.rng_substreams(81, range(50)))[0]
    mixed = np.array([[zoo.random_density(2, rng) for _ in range(2)] for _ in range(50)])
    corners = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2], dtype=complex)
    ends = [(a, b) for a in corners for b in corners]
    for stack in (
        pure,
        zoo._interval_stack(mixed[:, 0], mixed[:, 1]),
        zoo._interval_stack(*map(np.array, zip(*ends))),
        zoo.interval_channel(1.0, 0.0).stack,
        zoo.interval_channel_general(corners[2], corners[0]).stack,
    ):
        assert stack.interval and all(stack.channel(i).stack.interval for i in range(len(stack)))


@pytest.mark.parametrize("ensemble", cli.ENSEMBLES)
def test_scan_samples_an_interval_stack_exactly_when_its_header_has_interval_rows(ensemble):
    stack, _ = cli._sample_chunk(ensemble, 2, 5, range(4), 4)
    assert stack.interval == (ensemble == "random_interval")


def test_a_stack_takes_its_spectra_once_and_only_once_it_is_valid():
    superops = random_cptp_stack(2, [2] * 7, [rng_substream(78, i) for i in range(7)])[0].superop
    with mock.patch("qchan.channels.np.linalg", wraps=np.linalg) as linalg:
        ChannelStack(superops, 2)
    assert (linalg.svd.call_count, linalg.eigvalsh.call_count) == (1, 2)
    with mock.patch("qchan.channels.np.linalg", wraps=np.linalg) as linalg:
        with pytest.raises(ValidationError, match="^channel 0: TP fails"):
            ChannelStack(1.5 * superops, 2)
    assert (linalg.svd.call_count, linalg.eigvalsh.call_count) == (0, 1)


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
    assert "map_rank_lower" in err[0] and "seed_index 0:" in err[0]
    assert "planted failure" in err[0]
    assert not out.exists()
    # the per-channel report keeps the failure as an error record
    report = bounds.evaluate_all(depolarizing(2, 0.5), 2.0)
    assert not report.record("map_rank_lower_error").satisfied


def test_scan_names_the_row_where_a_bound_raises(tmp_path, capsys, monkeypatch):
    # the chunk call raises, and so does row 7 alone when evaluated on its own
    def raises_at_row_7(stack, q):
        if len(stack) > 1 or stack.superop[0].tobytes() == row_7:
            raise FloatingPointError("planted failure")
        return np.zeros(len(stack))

    stack, _ = cli._sample_chunk("random_cptp", 2, 3, range(12), 12)
    row_7 = stack.superop[7].tobytes()
    monkeypatch.setattr(bounds, "TABLE", _patched_table("map_cross_lower", rhs=raises_at_row_7))
    assert main(_scan_args(tmp_path / "scan.csv")) == 2
    assert capsys.readouterr().err == (
        "error: bound map_cross_lower failed on seed_index 7: "
        "FloatingPointError: planted failure\n"
    )


def test_scan_names_the_row_where_a_criterion_raises(
    tmp_path, capsys, monkeypatch, plant_criteria
):
    # as above, for a separability criterion; a bound comes before every criterion
    def raises_at_row(row):
        def rhs(stack, q):
            if len(stack) > 1 or stack.superop[0].tobytes() == rows[row]:
                raise FloatingPointError("planted failure")
            return np.zeros(len(stack))

        return rhs

    stack, _ = cli._sample_chunk("random_cptp", 2, 3, range(12), 12)
    rows = [s.tobytes() for s in stack.superop]
    plant_criteria(raises_at_row(7), ids={"separable_ratio"})
    assert main(_scan_args(tmp_path / "scan.csv")) == 2
    assert capsys.readouterr().err == (
        "error: bound separable_ratio failed on seed_index 7: FloatingPointError: planted failure\n"
    )
    plant_criteria(raises_at_row(2), ids={"separable_ratio"})
    monkeypatch.setattr(bounds, "TABLE", _patched_table("map_cross_lower", rhs=raises_at_row(9)))
    assert main(_scan_args(tmp_path / "scan.csv")) == 2
    assert "error: bound map_cross_lower failed on seed_index 9:" in capsys.readouterr().err


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
