"""Each spectrum at the cost of its structure, held to the general path.

A Hermiticity-preserving map takes its singular values from a real ``svd`` of
its transfer matrix in a Hermitian basis, a map built from a Stinespring
isometry with ``d < N^2`` takes its Choi eigenvalues from the ``d x d`` Gram of
its Kraus vectors, and the scan's region rule takes the partial-transpose
spectrum only of rows that no criterion decides.  These tests hold each path
to the general one it replaces.
"""

from unittest import mock

import numpy as np
import pytest

from qchan import cli, separability, zoo
from qchan.channels import (
    ChannelStack,
    ValidationError,
    from_choi,
    from_isometry,
    from_kraus,
    from_superoperator,
    real_transfer,
)

EPS = np.finfo(float).eps
# |sigma_real - sigma_complex| <= SV_ULPS * eps * sigma_1.  The worst measured
# over the stacks below is 40.5 ulps (random_bistochastic, N = 5 and 8).
SV_ULPS = 128
# |lambda_gram - lambda_full| <= CHOI_ULPS * eps * d_1.  The worst measured
# over the stacks below is 15.1 ulps (random_cptp, N = 8).
CHOI_ULPS = 64
DIMS = range(2, 9)


def _stack(ensemble: str, n: int) -> ChannelStack:
    """A stack of ``random_cptp`` maps with ``d`` in ``{1, 2, N, N^2 - 1, N^2}``
    or of ``random_bistochastic`` maps with ``k`` in ``{1, .., 4}``."""
    rows = 40 if n <= 4 else 15
    rngs = zoo.rng_substreams(3, range(rows))
    if ensemble == "random_cptp":
        envs = [(1, 2, n, n * n - 1, n * n)[i % 5] for i in range(rows)]
        return zoo.random_cptp_stack(n, envs, rngs)[0]
    return zoo.random_bistochastic_stack(n, [i % 4 + 1 for i in range(rows)], rngs)[0]


def _full_choi_eigenvalues(stack: ChannelStack) -> np.ndarray:
    sym = (stack.choi + stack.choi.conj().swapaxes(-1, -2)) / 2.0
    return np.linalg.eigvalsh(sym)[:, ::-1]


# ---------------------------------------------------------------------------
# singular values from the real transfer matrix


@pytest.mark.parametrize("n", DIMS)
@pytest.mark.parametrize("ensemble", ("random_cptp", "random_bistochastic"))
def test_real_and_complex_singular_values_agree_within_sv_ulps(ensemble, n):
    stack = _stack(ensemble, n)
    complex_sv = np.linalg.svd(stack.superop, compute_uv=False)
    dev = np.abs(stack.singular_values - complex_sv).max(axis=1)
    assert (dev <= SV_ULPS * EPS * complex_sv[:, 0]).all(), dev.max() / EPS
    # the real path is the one taken, bit for bit
    real_sv = np.linalg.svd(real_transfer(stack.superop, n), compute_uv=False)
    assert np.array_equal(stack.singular_values, real_sv)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_the_real_transfer_matrix_is_the_superoperator_in_a_hermitian_basis(n):
    # U^dag S U with the basis written out as a dense unitary
    stack = _stack("random_cptp", n)
    columns = []
    for a in range(n):
        columns.append(np.eye(n)[a][:, None] * np.eye(n)[a])
    for kind in ("sym", "anti"):
        for a in range(n):
            for b in range(a + 1, n):
                e_ab, e_ba = np.zeros((n, n)), np.zeros((n, n))
                e_ab[a, b] = e_ba[b, a] = 1.0
                pair = e_ab + e_ba if kind == "sym" else 1j * (e_ab - e_ba)
                columns.append(pair / np.sqrt(2.0))
    u = np.array([c.reshape(-1) for c in columns], dtype=complex).T
    np.testing.assert_allclose(u.conj().T @ u, np.eye(n * n), atol=1e-15)
    dense = u.conj().T @ stack.superop @ u
    assert np.abs(dense.imag).max() <= 1e-15
    np.testing.assert_allclose(real_transfer(stack.superop, n), dense.real, rtol=0, atol=1e-15)


def test_a_non_hermitian_permissive_row_takes_the_complex_svd():
    hermitian_map = zoo.random_cptp(3, 2, zoo.rng_substream(5, 0)).superop
    skew = np.zeros((9, 9), dtype=complex)
    skew[0, 1] = 1j  # Phi(|0><1|) gains i|0><0|: Hermiticity is not preserved
    superops = np.array([hermitian_map, hermitian_map + skew])
    stack = ChannelStack(superops, 3, require_cptp=False)
    assert stack.hermitian.tolist() == [True, False]
    complex_sv = np.linalg.svd(superops[1], compute_uv=False)
    assert np.array_equal(stack.singular_values[1], complex_sv)
    # the real form drops the anti-Hermitian part, so it would be wrong here
    real_sv = np.linalg.svd(real_transfer(superops[1:], 3), compute_uv=False)[0]
    assert np.abs(real_sv - complex_sv).max() > 1e-3
    assert np.array_equal(
        stack.singular_values[0],
        np.linalg.svd(real_transfer(superops[:1], 3), compute_uv=False)[0],
    )


# ---------------------------------------------------------------------------
# Choi eigenvalues from the Gram of the Kraus vectors


@pytest.mark.parametrize("n", DIMS)
def test_the_gram_choi_spectrum_matches_the_full_eigvalsh(n):
    envs = [1, n, n * n - 1, n * n] * 3
    stack, _ = zoo.random_cptp_stack(n, envs, zoo.rng_substreams(11, range(len(envs))))
    full = _full_choi_eigenvalues(stack)
    dev = np.abs(stack.choi_eigenvalues - full).max(axis=1)
    assert (dev <= CHOI_ULPS * EPS * full[:, 0]).all(), dev.max() / EPS
    for i, d in enumerate(envs):
        eigenvalues = stack.choi_eigenvalues[i]
        if d < n * n:  # exact zeros past the rank
            assert (eigenvalues[:d] > 0.0).all() and (eigenvalues[d:] == 0.0).all()
        else:  # d = N^2 keeps the full eigvalsh, bit for bit
            assert np.array_equal(eigenvalues, full[i])
        assert (np.diff(eigenvalues) <= 0.0).all()
    assert stack.cp.all() and stack.tp.all()


def test_a_low_rank_map_takes_no_full_choi_eigvalsh():
    rngs = zoo.rng_substreams(13, range(3))
    with mock.patch("qchan.channels.np.linalg", wraps=np.linalg) as linalg:
        zoo.random_cptp_stack(8, [8, 64, 8], rngs)
    shapes = [call.args[0].shape for call in linalg.eigvalsh.call_args_list]
    # the d = 8 Grams, the d = 64 Choi matrix, then Phi(1/N) of every map
    assert shapes == [(2, 8, 8), (1, 64, 64), (3, 8, 8)]
    assert [call.args[0].dtype for call in linalg.svd.call_args_list] == [np.float64]


def test_kraus_and_isometry_channels_take_the_gram_spectrum():
    rng = zoo.rng_stream(12)
    v = zoo.haar_isometry(3 * 2, 3, rng)  # N = 3, d = 2
    ops = [v.reshape(3, 2, 3)[:, i, :] for i in range(2)]
    for ch in (from_isometry(v, 3, 2), from_kraus(ops)):
        assert (ch.choi_eigenvalues[2:] == 0.0).all()
        full = _full_choi_eigenvalues(ch.stack)[0]
        assert np.abs(ch.choi_eigenvalues - full).max() <= CHOI_ULPS * EPS * full[0]
    gram = from_isometry(v, 3, 2).choi_eigenvalues
    assert np.array_equal(gram, from_kraus(ops).choi_eigenvalues)
    # the same map given by its superoperator takes the full eigvalsh
    general = from_superoperator(from_kraus(ops).superop)
    assert np.array_equal(general.choi_eigenvalues, _full_choi_eigenvalues(general.stack)[0])


def test_a_rank_deficient_kraus_set_keeps_its_choi_spectrum_descending():
    # {sqrt(0.3) U, sqrt(0.7) U} has Choi rank 1 < d = 2; the Gram's second
    # eigenvalue is roundoff, and when it is negative it belongs after the zeros
    lowest = []
    for seed in range(40):
        u = zoo.haar_unitary(3, zoo.rng_stream(seed))
        ch = from_kraus([np.sqrt(0.3) * u, np.sqrt(0.7) * u])
        eigenvalues = ch.choi_eigenvalues
        assert (np.diff(eigenvalues) <= 0.0).all()
        assert abs(eigenvalues[0] - 3.0) <= CHOI_ULPS * EPS * 3.0 and ch.cp
        lowest.append(eigenvalues[-1])
    assert min(lowest) < 0.0


@pytest.mark.parametrize("form", ("superoperator", "choi"))
def test_a_non_cp_spec_still_raises_the_cp_error(form):
    # the transpose map: TP and Hermiticity preserving, not CP
    swap = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            swap[b * 2 + a, a * 2 + b] = 1.0
    build = from_superoperator if form == "superoperator" else from_choi
    matrix = swap if form == "superoperator" else from_superoperator(swap, permissive=True).choi
    with pytest.raises(ValidationError, match="CP fails: smallest Choi eigenvalue -1.000e\\+00"):
        build(matrix)
    doc = {"form": form, "matrices": [[[[x.real, x.imag] for x in row] for row in matrix]]}
    with pytest.raises(ValidationError, match="CP fails"):
        cli.load_channel_spec(doc)


# ---------------------------------------------------------------------------
# the partial transpose only where a region needs it


SCAN_CASES = [(e, 2) for e in cli.ENSEMBLES] + [
    (e, n)
    for e in ("random_cptp", "random_bistochastic", "depolarizing")
    for n in (3, 8)
]


@pytest.mark.parametrize("ensemble,n", SCAN_CASES)
def test_lazy_ppt_regions_equal_full_ppt_regions(ensemble, n):
    rows = 24 if n < 8 else 8
    stack, _ = cli._sample_chunk(ensemble, n, 5, range(rows), rows)
    _, full_ppt = separability.ppt_stack(stack)
    for q in (1.0, 2.0, np.inf):
        with mock.patch.object(separability, "ppt_stack", wraps=separability.ppt_stack) as ppt:
            criteria, regions = separability.verdict_columns(stack, q)
        _, full_regions = separability.verdict_columns(stack, q, full_ppt)
        assert regions.tolist() == full_regions.tolist()
        # only the rows that no criterion put in A were tested
        undecided = np.flatnonzero(regions != "A")
        tested = [call.args[1].tolist() for call in ppt.call_args_list]
        assert tested == ([undecided.tolist()] if undecided.size else [])


def test_a_scan_takes_each_undecided_rows_partial_transpose_once(tmp_path):
    out = tmp_path / "scan.csv"
    with mock.patch.object(
        separability, "partial_transpose", wraps=separability.partial_transpose
    ) as pt:
        assert cli.main(["scan", "--dim", "8", "--n", "12", "--q", "2", "--out", str(out)]) == 0
    header, *lines = out.read_text().splitlines()
    column = header.split(",").index("region")
    regions = [line.split(",")[column] for line in lines]
    assert len(regions) == 12 and "A" in regions and "B" in regions
    assert sum(len(call.args[0]) for call in pt.call_args_list) == regions.count("B")


def test_verify_takes_each_qubit_stacks_partial_transpose_once(capsys):
    with mock.patch.object(separability, "ppt_stack", wraps=separability.ppt_stack) as ppt:
        assert cli.main(["verify", "--suite", "separability", "--n", "12", "--seed", "0"]) == 0
    capsys.readouterr()
    stacks = [call.args[0] for call in ppt.call_args_list if len(call.args) == 1]
    # one call per sampler group on all its rows, then one per region example
    assert [len(s) for s in stacks] == [6, 3, 3, 1, 1, 1, 1]
    assert all(len(call.args) == 1 for call in ppt.call_args_list)


def test_verify_ppt_implies_criteria_fails_when_npt_rows_pass_as_ppt(capsys, monkeypatch):
    # every qubit map claimed PPT: the NPT maps violate a criterion, and the check says so
    def all_ppt(stack, rows=slice(None)):
        min_eig, _ = real_ppt(stack, rows)
        return min_eig, np.ones(len(min_eig), dtype=bool)

    real_ppt = separability.ppt_stack
    monkeypatch.setattr(separability, "ppt_stack", all_ppt)
    assert cli.main(["verify", "--suite", "separability", "--n", "12", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL separability.ppt_implies_criteria checks=72 ")
    assert "FAIL separability.ppt_implies_realignment " in out
