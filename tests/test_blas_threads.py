"""Each CLI call runs on one OpenBLAS thread and gives the caller's count back.

The count is read here through the library's own symbols, found without the
CLI's lookup, so a lookup that finds nothing cannot pass for a working cap.
"""

import ctypes
import json
from unittest import mock

import pytest

from qchan import cli, entropy, separability


def _openblas_counts():
    """``(get, set)`` of the first loaded OpenBLAS, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


BLAS = _openblas_counts()
pytestmark = pytest.mark.skipif(BLAS is None, reason="no OpenBLAS loaded")
OUTER = 2  # the caller's count in these tests; main must not keep it


@pytest.fixture(autouse=True)
def outer_count():
    """Set the caller's count to ``OUTER`` for the test, then restore it."""
    get, set_ = BLAS
    before = get()
    set_(OUTER)
    try:
        yield
    finally:
        set_(before)


def _spec(tmp_path) -> str:
    path = tmp_path / "spec.json"
    doc = {"dim": 3, "form": "family", "family": {"name": "random_cptp", "params": {"seed": 4}}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _commands(tmp_path):
    """``(argv, stage)``: a call of each command and a module attribute it
    reaches after parsing, whose calls read the thread count."""
    scan = ["scan", "--dim", "8", "--n", "4", "--q", "2", "--out", str(tmp_path / "s.csv")]
    return [
        (scan, (separability, "verdict_columns")),
        (["verify", "--suite", "separability", "--n", "8"], (cli, "_mixed_qubit_stacks")),
        (["analyze", "--spec", _spec(tmp_path), "--q", "1,2"], (entropy, "entropy_point")),
    ]


def _counting(module, name, seen):
    """Patch ``module.name`` to note the thread count on every call."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(BLAS[0]())
        return real(*args, **kwargs)

    return mock.patch.object(module, name, wrapper)


def _run(argv, tmp_path, capsys):
    """Exit code and the bytes a call printed and wrote."""
    rc = cli.main(argv)
    out = capsys.readouterr().out
    written = (tmp_path / "s.csv").read_bytes() if argv[0] == "scan" else b""
    return rc, out, written


@pytest.mark.parametrize("command", range(3), ids=["scan", "verify", "analyze"])
def test_every_stage_of_a_call_runs_on_one_blas_thread(tmp_path, capsys, command):
    argv, (module, name) = _commands(tmp_path)[command]
    seen = []
    # the parser runs first, so a cap set later than the first stage shows here
    with _counting(cli, "_build_parser", seen), _counting(module, name, seen):
        assert _run(argv, tmp_path, capsys)[0] == 0
    assert len(seen) >= 2 and set(seen) == {1}
    assert BLAS[0]() == OUTER


def test_the_count_is_restored_after_an_input_error(tmp_path, capsys):
    assert cli.main(["scan", "--dim", "9", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: --dim must be in")
    assert BLAS[0]() == OUTER


def test_the_count_is_restored_after_an_exception_leaves_main(tmp_path):
    seen = []

    def crash(*args, **kwargs):
        seen.append(BLAS[0]())
        raise RuntimeError("planted")

    with mock.patch.object(cli, "_scan_columns", crash), pytest.raises(RuntimeError):
        cli.main(["scan", "--n", "2", "--out", str(tmp_path / "s.csv")])
    assert seen == [1]
    assert BLAS[0]() == OUTER


@pytest.mark.parametrize("command", range(3), ids=["scan", "verify", "analyze"])
def test_without_openblas_nothing_changes_but_the_thread_count(tmp_path, capsys, command):
    argv, (module, name) = _commands(tmp_path)[command]
    capped = _run(argv, tmp_path, capsys)
    seen = []
    with mock.patch.object(cli, "_openblas", return_value=()), _counting(module, name, seen):
        assert _run(argv, tmp_path, capsys) == capped
    assert set(seen) == {OUTER}
    assert BLAS[0]() == OUTER


def test_the_cli_finds_the_loaded_openblas():
    get, set_ = BLAS
    assert len(cli._openblas()) >= 1
    with cli._one_blas_thread():
        assert get() == 1
    assert get() == OUTER
