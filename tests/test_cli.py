import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qchan import bounds, cli, zoo
from qchan.channels import Channel
from qchan.cli import SCAN_BASE_COLUMNS, load_channel_spec, main

LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "data" / "parent_cli.txt"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qchan", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for word in ("analyze", "scan", "curve", "verify"):
        assert word in proc.stdout


def _write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _family_spec(tmp_path, name, params=None, dim=2):
    return _write_spec(
        tmp_path,
        f"{name}.json",
        {"dim": dim, "form": "family", "family": {"name": name, "params": params or {}}},
    )


# ---------------------------------------------------------------------------
# analyze


def test_analyze_identity_to_stdout(tmp_path, capsys):
    spec = _family_spec(tmp_path, "identity")
    assert main(["analyze", "--spec", spec]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2 and doc["cp"] and doc["tp"] and doc["unital"]
    assert doc["bloch_ellipsoid"] == [1.0, 1.0, 1.0]
    assert abs(doc["sigma1"] - 1.0) < 1e-12
    assert abs(doc["lambda_phi"] - 4.0) < 1e-12
    by_q = {e["q"]: e for e in doc["entropies"]}
    assert by_q[1.0]["s_map"] == 0.0
    assert abs(by_q[1.0]["s_rec"] - 2.0 * LN2) < 1e-12
    assert {b["q"] for b in doc["bounds"]} == {1.0, 2.0}
    regions = {v["q"]: v["region"] for v in doc["separability"]}
    assert regions[2.0] == "A"


def test_analyze_full_depolarizing_is_region_c(tmp_path, capsys):
    spec = _family_spec(tmp_path, "depolarizing", {"alpha": 0.0})
    assert main(["analyze", "--spec", spec, "--q", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separability"][0]["region"] == "C"
    assert abs(doc["entropies"][0]["s_map"] - 2.0 * LN2) < 1e-12
    assert doc["entropies"][0]["s_rec"] == 0.0


def test_analyze_kraus_spec_with_complex_entries(tmp_path, capsys):
    root8 = math.sqrt(0.8)
    root2 = math.sqrt(0.2)
    spec = _write_spec(
        tmp_path,
        "damping.json",
        {
            "dim": 2,
            "form": "kraus",
            "matrices": [
                [[1.0, 0.0], [0.0, root8]],
                [[0.0, [root2, 0.0]], [0.0, 0.0]],
            ],
        },
    )
    assert main(["analyze", "--spec", spec, "--q", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cp"] and doc["tp"] and not doc["unital"]
    assert doc["bloch_ellipsoid"] is None


def test_analyze_infinite_order(tmp_path, capsys):
    spec = _family_spec(tmp_path, "depolarizing", {"alpha": 0.5})
    assert main(["analyze", "--spec", spec, "--q", "1,inf"]) == 0
    doc = json.loads(capsys.readouterr().out)
    qs = [e["q"] for e in doc["entropies"]]
    assert qs == [1.0, "inf"]


def test_analyze_writes_output_file(tmp_path, capsys):
    spec = _family_spec(tmp_path, "coarse_graining")
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", spec, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["label"] == "coarse_graining(N=2)"


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "form":', encoding="utf-8")
    assert main(["analyze", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line" in err


def test_analyze_rejects_unknown_family_and_form(tmp_path, capsys):
    spec = _family_spec(tmp_path, "not_a_family")
    assert main(["analyze", "--spec", spec]) == 2
    spec = _write_spec(tmp_path, "badform.json", {"dim": 2, "form": "stinespring"})
    assert main(["analyze", "--spec", spec]) == 2
    capsys.readouterr()


def test_analyze_rejects_dim_mismatch(tmp_path, capsys):
    spec = _write_spec(
        tmp_path,
        "mismatch.json",
        {"dim": 3, "form": "superoperator", "matrices": [np.eye(4).tolist()]},
    )
    assert main(["analyze", "--spec", spec]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_invalid_channel(tmp_path, capsys):
    spec = _write_spec(
        tmp_path,
        "notp.json",
        {"dim": 2, "form": "superoperator", "matrices": [(1.5 * np.eye(4)).tolist()]},
    )
    assert main(["analyze", "--spec", spec]) == 2
    assert "TP fails" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"dim": None, "form": "family", "family": {"name": "identity"}}, "dim"),
        ({"dim": [2], "form": "family", "family": {"name": "identity"}}, "dim"),
        ({"dim": 2.7, "form": "family", "family": {"name": "identity"}}, "dim"),
        ({"dim": None, "form": "superoperator", "matrices": [np.eye(4).tolist()]}, "dim"),
        ({"dim": 2.7, "form": "superoperator", "matrices": [np.eye(4).tolist()]}, "dim"),
        ({"dim": 2, "form": "family", "family": {"name": "depolarizing",
                                                  "params": {"alpha": None}}}, "'alpha'"),
        ({"dim": 2, "form": "family", "family": {"name": "pauli", "params": {"p": 5}}}, "'p'"),
    ],
    ids=["dim_null", "dim_list", "dim_fraction", "superop_dim_null", "superop_dim_fraction",
         "alpha_null", "pauli_p_scalar"],
)
def test_analyze_rejects_spec_values_of_the_wrong_type(tmp_path, capsys, doc, field):
    spec = _write_spec(tmp_path, "spec.json", doc)
    assert main(["analyze", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1 and err.endswith("\n")
    assert err.count("\n") == 1 and field in err


def test_load_channel_spec_accepts_integral_floats():
    doc = {"dim": 2.0, "form": "family", "family": {"name": "random_bistochastic",
                                                   "params": {"k": 3.0, "seed": 4}}}
    ch = load_channel_spec(doc)
    assert ch.label == "random_bistochastic(N=2,k=3)"
    assert np.array_equal(ch.superop, load_channel_spec({**doc, "dim": 2}).superop)


def test_load_channel_spec_family_dim_range():
    with pytest.raises(ValueError):
        load_channel_spec({"dim": 9, "form": "family", "family": {"name": "identity"}})
    with pytest.raises(ValueError):
        load_channel_spec({"dim": 1, "form": "family", "family": {"name": "identity"}})


XI = [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize(
    "doc",
    [
        {"form": "kraus", "matrices": [[[1]]]},
        {"dim": 1, "form": "kraus", "matrices": [[[1]]]},
        {"dim": 1, "form": "superoperator", "matrices": [[[1]]]},
        {"dim": 3, "form": "family", "family": {"name": "pauli",
                                                "params": {"p": [0.4, 0.3, 0.2, 0.1]}}},
        {"dim": 5, "form": "family", "family": {"name": "interval",
                                                "params": {"alpha": 0.3, "beta": 0.6}}},
        {"dim": 4, "form": "family", "family": {"name": "complete_contraction",
                                                "params": {"xi": XI}}},
    ],
    ids=["kraus_1x1", "kraus_dim_1", "superop_dim_1", "pauli_dim_3", "interval_dim_5",
         "contraction_dim_4"],
)
def test_analyze_checks_the_dim_of_the_built_channel(tmp_path, capsys, doc):
    spec = _write_spec(tmp_path, "spec.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        assert main(["analyze", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "dim" in captured.err


def test_analyze_accepts_a_family_that_sets_its_own_dim(tmp_path, capsys):
    # without a declared dim, the channel's own size counts
    xi = (np.eye(3) / 3).tolist()
    doc = {"form": "family", "family": {"name": "complete_contraction", "params": {"xi": xi}}}
    assert main(["analyze", "--spec", _write_spec(tmp_path, "spec.json", doc)]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3


# ---------------------------------------------------------------------------
# scan


def _run_scan(tmp_path, name, extra=()):
    out = tmp_path / name
    args = [
        "scan",
        "--ensemble",
        "random_cptp",
        "--n",
        "30",
        "--dim",
        "2",
        "--q",
        "2",
        "--seed",
        "5",
        "--out",
        str(out),
    ]
    assert main(args + list(extra)) == 0
    return out.read_bytes()


def test_scan_is_deterministic_across_chunk_sizes(tmp_path, monkeypatch):
    default = _run_scan(tmp_path, "default.csv")
    repeat = _run_scan(tmp_path, "repeat.csv")
    outputs = [default, repeat]
    for rows in (1, 7):
        # the budget of `rows` stacked 4x4 complex superoperators (N = 2)
        monkeypatch.setattr(cli, "SCAN_CHUNK_BYTES", rows * 16 * 2**4)
        assert cli._chunk_rows(2) == rows
        outputs.append(_run_scan(tmp_path, f"chunk{rows}.csv"))
    assert all(out == default for out in outputs)


def test_scan_csv_layout(tmp_path):
    out = tmp_path / "plane.csv"
    assert (
        main(
            [
                "scan",
                "--ensemble",
                "random_pauli",
                "--n",
                "12",
                "--q",
                "1",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    assert header[: len(SCAN_BASE_COLUMNS)] == list(SCAN_BASE_COLUMNS)
    assert len(lines) == 13
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == len(header)  # labels had their commas sanitized
        assert fields[10] in ("A", "B", "C")
        for slack in fields[11:]:
            assert float(slack) >= -1e-8


def test_scan_json_document(tmp_path):
    out = tmp_path / "plane.json"
    assert (
        main(
            [
                "scan",
                "--ensemble",
                "random_bistochastic",
                "--n",
                "8",
                "--q",
                "2",
                "--seed",
                "4",
                "--out",
                str(out),
                "--format",
                "json",
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["n"] == 8 and doc["q"] == 2.0 and doc["ensemble"] == "random_bistochastic"
    assert len(doc["rows"]) == 8
    assert all(len(row) == len(doc["columns"]) for row in doc["rows"])
    slack_cols = [c for c in doc["columns"] if c.startswith("slack_")]
    assert "slack_collision_identity" in slack_cols
    # bistochastic channels: sigma1 = 1 in every row
    i_sig = doc["columns"].index("sigma1")
    assert all(abs(row[i_sig] - 1.0) < 1e-9 for row in doc["rows"])


def test_scan_modes_emit_identical_csv(tmp_path):
    a = _run_scan(tmp_path, "a.csv", ["--mode", "entropy_plane"])
    b = _run_scan(tmp_path, "b.csv", ["--mode", "output_plane"])
    assert a == b


def test_scan_gnuplot_columns_depend_on_mode(tmp_path):
    _run_scan(tmp_path, "e.csv", ["--gnuplot", str(tmp_path / "e.gp")])
    script = (tmp_path / "e.gp").read_text(encoding="utf-8")
    assert "using 4:5" in script and "e.csv" in script
    _run_scan(
        tmp_path, "o.csv", ["--mode", "output_plane", "--gnuplot", str(tmp_path / "o.gp")]
    )
    assert "using 6:4" in (tmp_path / "o.gp").read_text(encoding="utf-8")


def test_scan_input_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    base = ["scan", "--out", out, "--n", "3"]
    assert main(base + ["--ensemble", "nope"]) == 2
    assert main(base + ["--mode", "nope"]) == 2
    assert main(base + ["--dim", "9"]) == 2
    assert main(base + ["--q", "0.5"]) == 2
    assert main(base + ["--ensemble", "random_pauli", "--dim", "3"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# curve


def _read_curve(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "param,s_map,s_rec"
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def test_curve_ab_endpoints(tmp_path):
    out = tmp_path / "ab.csv"
    assert main(["curve", "--name", "ab", "--grid", "5", "--out", str(out)]) == 0
    rows = _read_curve(out)
    assert len(rows) == 5
    assert abs(rows[0][1] - 2.0 * LN2) < 1e-12 and rows[0][2] == 0.0
    assert rows[-1][1] == 0.0 and abs(rows[-1][2] - 2.0 * LN2) < 1e-12


def test_curve_diagonal_has_equal_entropies(tmp_path):
    out = tmp_path / "diag.csv"
    assert main(["curve", "--name", "diagonal_Rinv", "--grid", "9", "--out", str(out)]) == 0
    for _, s_map, s_rec in _read_curve(out):
        assert abs(s_map - s_rec) < 1e-10


def test_curve_interval_is_horizontal_segment(tmp_path):
    out = tmp_path / "cd.csv"
    assert main(["curve", "--name", "interval_cd", "--grid", "7", "--out", str(out)]) == 0
    rows = _read_curve(out)
    for _, s_map, _ in rows:
        assert abs(s_map - LN2) < 1e-12
    assert abs(rows[0][2] - LN2) < 1e-12  # orthogonal endpoints
    assert rows[-1][2] < 1e-8  # coinciding endpoints


def test_curve_gnuplot_and_errors(tmp_path, capsys):
    out = tmp_path / "ab.csv"
    gp = tmp_path / "ab.gp"
    assert (
        main(["curve", "--name", "ab", "--grid", "3", "--out", str(out), "--gnuplot", str(gp)])
        == 0
    )
    assert "using 2:3" in gp.read_text(encoding="utf-8")
    assert main(["curve", "--name", "nope", "--out", str(out)]) == 2
    assert main(["curve", "--name", "ab", "--grid", "1", "--out", str(out)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_zoo_suite_passes_and_repeats(capsys):
    assert main(["verify", "--suite", "zoo", "--n", "8", "--seed", "1"]) == 0
    first = capsys.readouterr().out
    lines = first.strip().split("\n")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "verify: 5 passed, 0 failed (suite=zoo, n=8, seed=1)"
    assert main(["verify", "--suite", "zoo", "--n", "8", "--seed", "1"]) == 0
    assert capsys.readouterr().out == first


def test_verify_separability_suite(capsys):
    assert main(["verify", "--suite", "separability", "--n", "10", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "separability.ppt_implies_criteria" in out
    assert "FAIL" not in out


def test_verify_inject_invalid_is_caught(capsys):
    code = main(["verify", "--suite", "bounds", "--n", "6", "--seed", "0", "--inject-invalid"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL verify.negative_control" in out
    assert "reproducer=injected" in out


def test_verify_zoo_fails_a_family_that_does_not_validate(capsys, monkeypatch):
    def inflated(rngs, *, index=None):  # Pauli weights that sum to 1.5
        p = np.array([rng.dirichlet(np.ones(4)) for rng in rngs])
        return zoo._pauli_stack(1.5 * p, index)

    monkeypatch.setattr(zoo, "random_pauli_stack", inflated)
    assert main(["verify", "--suite", "zoo", "--n", "4", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL zoo.families_pass_validation checks=8 worst_slack=-1.000000e+00 " in out
    assert "reproducer=seed=0,index=0,error=TP fails" in out
    assert out.endswith("verify: 4 passed, 1 failed (suite=zoo, n=4, seed=0)\n")


def test_verify_check_fails_on_a_nan_slack():
    check = cli._CheckResult("planted")
    check.add(0.5, "finite")
    check.add(math.nan, "nan-slack", 1e-8)
    check.add(0.25, "after")
    assert check.failures == ["nan-slack"]
    assert check.line() == "FAIL planted checks=3 worst_slack=nan reproducer=nan-slack"


def test_verify_fails_on_an_error_record(capsys, monkeypatch):
    # an evaluate_all error record carries a nan slack; it must fail the suite
    def boom(stack, q):
        raise FloatingPointError("planted failure")

    table = tuple(
        dataclasses.replace(b, rhs=boom) if b.id == "map_rank_lower" else b for b in bounds.TABLE
    )
    monkeypatch.setattr(bounds, "TABLE", table)
    assert main(["verify", "--suite", "bounds", "--n", "2", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL bounds.report_all_orders" in out
    assert "id=map_rank_lower_error" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_verify_rejects_n_below_one(capsys, n):
    assert main(["verify", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n must be >= 1\n"


def test_verify_fails_a_check_that_ran_no_instance(capsys):
    # at n=1, seed 0 draws no PPT channel, so the two PPT-fed checks see nothing
    assert main(["verify", "--suite", "separability", "--n", "1", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert (
        "FAIL separability.ppt_implies_criteria checks=0 worst_slack=inf reproducer=no_instance"
        in out
    )
    assert "PASS separability.region_examples" in out
    assert out.endswith("verify: 1 passed, 2 failed (suite=separability, n=1, seed=0)\n")


def test_verify_sigma1_oracle_catches_a_low_svd(capsys, monkeypatch):
    # the certificate is the search alone: an SVD that reads 1e-6 low must fail it
    true_sigma1 = Channel.sigma1
    monkeypatch.setattr(Channel, "sigma1", property(lambda ch: true_sigma1.fget(ch) - 1e-6))
    assert main(["verify", "--suite", "bounds", "--n", "4", "--seed", "0"]) == 1
    assert "FAIL bounds.sigma1_oracle_one_sided checks=4 " in capsys.readouterr().out


# ---------------------------------------------------------------------------
# golden output


def _golden_blocks():
    blocks = []
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith(("# verify ", "# analyze ")):
            blocks.append((line[2:], []))
        elif not line.startswith("#"):
            blocks[-1][1].append(line)
    return blocks


def _tokens(line: str) -> list:
    """A verify line as words and ``[key, number]`` pairs."""
    out = []
    for word in line.split():
        key, _, value = word.partition("=")
        try:
            out.append([key, float(value)])
        except ValueError:
            out.append(word)
    return out


def _assert_close(old, new, where=()):
    """Strings, names and ids equal; numbers within 1e-12 (1 + |x|)."""
    if isinstance(old, float):
        assert isinstance(new, float), where
        assert old == new or abs(old - new) <= 1e-12 * (1.0 + abs(old)), (where, old, new)
    elif isinstance(old, dict):
        assert old.keys() == new.keys(), where
        for key in old:
            _assert_close(old[key], new[key], where + (key,))
    elif isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), where
        for i, (a, b) in enumerate(zip(old, new)):
            _assert_close(a, b, where + (i,))
    else:
        assert old == new, (where, old, new)


def test_cli_matches_the_parent_golden_output(tmp_path, capsys):
    blocks = _golden_blocks()
    assert len(blocks) == 12
    for command, expected in blocks:
        if command.startswith("analyze"):
            argv = command.split(" ", 3)
            spec = _write_spec(tmp_path, "spec.json", json.loads(argv.pop()))
            assert main(argv + ["--spec", spec]) == 0
            _assert_close(json.loads("\n".join(expected)), json.loads(capsys.readouterr().out))
        else:
            assert main(command.split()) == 0
            got = capsys.readouterr().out.splitlines()
            _assert_close([_tokens(x) for x in expected], [_tokens(x) for x in got], (command,))
