"""The CLI's exit contract on generated input.

Every run exits 0 or 2 (``verify`` may also exit 1, with nothing on stderr);
exit 2 prints exactly one ``error:`` line; no run raises a warning or takes
more than 2 s.  One test feeds ``analyze`` generated spec documents, the
other feeds ``scan``, ``curve`` and ``verify`` generated argument lists.
Valid values are drawn more often than invalid ones, so that a good share
of the runs gets past the input checks and exits 0.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qchan import cli, zoo

FUZZ = settings(
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _mostly(valid, invalid):
    """``valid`` three times as often as ``invalid``."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: valid if ok else invalid)


def _rarely():
    """``True`` one time in ten."""
    return st.sampled_from(range(10)).map(lambda i: i == 9)


# ---------------------------------------------------------------------------
# spec documents

NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, 1e300, -1e300, 2**70, math.nan, math.inf, -math.inf]),
)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=4))
ENTRIES = st.one_of(NUMBERS, st.lists(NUMBERS, min_size=2, max_size=2), SCALARS)


@st.composite
def random_matrices(draw):
    """Matrices of side 0-12, sometimes not square, with any entries."""
    side = draw(st.integers(0, 12))
    width = draw(st.sampled_from([side, side, max(side - 1, 0)]))
    row = st.lists(ENTRIES, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=side, max_size=side))


def _encode(m):
    return [[[x.real, x.imag] for x in row] for row in np.asarray(m).tolist()]


# Matrices of channels that build, by form, to take as they are or with one
# entry replaced.
CHANNELS = (
    zoo.depolarizing(2, 0.3),
    zoo.interval_channel(0.3, 0.8, 0.4, 2.0),
    zoo.coarse_graining(3),
    zoo.spontaneous_emission(2),
)
BUILT = {
    "kraus": [[_encode(a) for a in ch.kraus] for ch in CHANNELS],
    "superoperator": [[_encode(ch.superop)] for ch in CHANNELS],
    "choi": [[_encode(ch.choi)] for ch in CHANNELS],
}


@st.composite
def built_matrices(draw, form):
    mats = json.loads(json.dumps(draw(st.sampled_from(BUILT[form]))))  # a copy to change
    if draw(st.booleans()):
        m = draw(st.sampled_from(mats))
        m[draw(st.integers(0, len(m) - 1))][draw(st.integers(0, len(m) - 1))] = draw(ENTRIES)
    return mats


# Family parameters with their valid values; a family reads the ones it names.
VALID_PARAMS = {
    "alpha": st.floats(0.0, 1.0),
    "beta": st.floats(0.0, 1.0),
    "phi1": st.floats(-7.0, 7.0),
    "phi2": st.floats(-7.0, 7.0),
    "p": st.sampled_from([[0.25] * 4, [0.4, 0.3, 0.2, 0.1], [1.0, 0.0, 0.0, 0.0]]),
    "eta": st.sampled_from([[0.5, 0.3, 0.2], [1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]),
    "u": st.just(_encode(np.eye(2))),
    "xi": st.sampled_from([_encode(np.eye(2) / 2), _encode(np.diag([0.7, 0.3]))]),
    "seed": st.integers(0, 50),
    "index": st.integers(0, 50),
    "env_dim": st.integers(1, 9),
    "k": st.integers(1, 4),
}
FAMILY_PARAMS = {
    "depolarizing": ("alpha",),
    "complete_contraction": ("xi",),
    "interval": ("alpha", "beta", "phi1", "phi2"),
    "pauli": ("p",),
    "reshuffle_invariant": ("eta", "u"),
    "random_cptp": ("seed", "index", "env_dim"),
    "random_bistochastic": ("seed", "index", "k"),
}
ANY_VALUE = st.one_of(SCALARS, st.lists(NUMBERS, max_size=5), random_matrices())


@st.composite
def family_params(draw, name):
    keys = [key for key in FAMILY_PARAMS.get(name, ()) if not draw(_rarely())]
    keys += draw(st.lists(st.sampled_from(sorted(VALID_PARAMS)), max_size=1))
    return {key: draw(_mostly(VALID_PARAMS[key], ANY_VALUE)) for key in keys}


@st.composite
def spec_documents(draw):
    form = draw(_mostly(st.sampled_from(["family", *BUILT]), st.one_of(st.just("other"), SCALARS)))
    doc = {"form": form}
    if form == "family":
        name = draw(_mostly(st.sampled_from(list(cli.FAMILIES)), st.just("no_such_family")))
        params = draw(_mostly(family_params(name), ANY_VALUE))
        doc["family"] = {"name": name, "params": params}
    elif form in BUILT:
        random = st.lists(random_matrices(), max_size=3)
        doc["matrices"] = draw(_mostly(built_matrices(form), random))
    if draw(st.booleans()):
        doc["dim"] = draw(_mostly(st.sampled_from([2, 3, 8]), st.one_of(st.just(9), SCALARS)))
    if draw(_rarely()):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(_mostly(st.just(doc), st.one_of(SCALARS, st.lists(SCALARS))))


Q_LISTS = _mostly(
    st.sampled_from(["1", "1,2", "0,1.5,inf", "2", "0.5"]),
    st.sampled_from(["-1", "nan", "abc", ",", ""]),
)

# ---------------------------------------------------------------------------
# argument lists


def argument_lists(tmp):
    out = ([str(tmp / "out.txt")], [str(tmp), str(tmp / "missing" / "out.txt")])
    plot = ([str(tmp / "plot.gp")], [str(tmp), str(tmp / "missing" / "plot.gp")])
    n = (["1", "3", "5"], ["0", "-1", "abc", "1.5", ""])
    seed = (["0", "7"], ["x", "-1"])
    commands = {
        "scan": {
            "--mode": (list(cli.SCAN_MODES), ["bogus"]),
            "--ensemble": (list(cli.ENSEMBLES), ["bogus"]),
            "--n": n,
            "--dim": (["2", "3", "8"], ["1", "9", "x"]),
            "--q": (["1", "1.5", "2", "inf"], ["0.5", "-1", "nan", "abc", ""]),
            "--seed": seed,
            "--format": (["csv", "json"], ["xml"]),
            "--out": out,
            "--gnuplot": plot,
        },
        "curve": {
            "--name": (list(cli.CURVES), ["bogus"]),
            "--grid": (["2", "3", "5"], ["1", "0", "x"]),
            "--out": out,
            "--gnuplot": plot,
        },
        "verify": {
            "--suite": (["all", *cli.SUITES], ["bogus"]),
            "--n": n,
            "--seed": seed,
        },
    }

    @st.composite
    def draw_argv(draw):
        command = draw(st.sampled_from(sorted(commands)))
        argv = [command]
        for name, (valid, invalid) in commands[command].items():
            kinds = ["valid"] * 6 + ["invalid"]
            if name not in ("--n", "--grid"):  # their defaults are sized for real runs
                kinds.append("absent")
            kind = draw(st.sampled_from(kinds))
            if kind != "absent":
                argv += [name, draw(st.sampled_from(valid if kind == "valid" else invalid))]
        if command == "verify" and draw(st.booleans()):
            argv.append("--inject-invalid")
        if draw(_rarely()):
            argv.append("--no-such-flag")
        return argv

    return draw_argv()


# ---------------------------------------------------------------------------
# the contract


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
    assert not caught, [str(w.message) for w in caught]
    assert elapsed < 2.0, (argv, elapsed)
    err = err.getvalue()
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error:"), (argv, err)
    else:
        assert code == 0 or (code == 1 and argv[0] == "verify"), (argv, code)
        assert err == "", (argv, err)
    return code


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(FUZZ, max_examples=300)
@given(doc=spec_documents(), q=Q_LISTS)
def test_analyze_keeps_the_exit_contract_on_any_spec(doc, q, tmp):
    path = tmp / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    _run(["analyze", "--spec", str(path), "--q", q, "--out", str(tmp / "report.json")])


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_scan_curve_and_verify_keep_the_exit_contract_on_any_arguments(data, tmp):
    _run(data.draw(argument_lists(tmp)))
