import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qchan import bounds, cli, separability, zoo
from qchan.channels import Channel, ChannelStack
from qchan.cli import SCAN_BASE_COLUMNS, load_channel_spec, main

LN2 = math.log(2.0)
GOLDEN = Path(__file__).parent / "data" / "parent_cli.txt"
VERIFY_GOLDEN = Path(__file__).parent / "data" / "parent_verify.txt"


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


def test_an_interval_map_gets_one_report_however_its_spec_is_written(tmp_path, capsys):
    ch = zoo.interval_channel(0.3, 0.8, 0.4, 2.0)
    params = {"alpha": 0.3, "beta": 0.8, "phi1": 0.4, "phi2": 2.0}
    specs = [_family_spec(tmp_path, "interval", params)]
    for form, m in (("superoperator", ch.superop), ("choi", ch.choi)):
        rows = [[[x.real, x.imag] for x in row] for row in m.tolist()]
        specs.append(_write_spec(tmp_path, f"{form}.json", {"form": form, "matrices": [rows]}))
    reports = []
    for spec in specs:
        assert main(["analyze", "--spec", spec, "--q", "1,2,inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        reports.append([(b["q"], b["records"]) for b in doc["bounds"]])
    assert [len(records) for _, records in reports[0]] == [15, 18, 18]
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize(
    "argv",
    (
        ["scan", "--n", "abc", "--out", "x.csv"],
        ["scan"],
        ["scan", "--format", "xml", "--out", "x.csv"],
        ["curve", "--name", "ab", "--grid", "x", "--out", "x.csv"],
        ["no_such_command"],
    ),
    ids=("bad_int", "missing_required", "bad_choice", "bad_grid", "unknown_command"),
)
def test_a_usage_error_prints_one_error_line(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main builds its parser once; each call must still read as with a fresh one
    plot = tmp_path / "scan.gp"
    commands = [
        ["scan", "--n", "5", "--q", "2", "--out", "-", "--gnuplot", str(plot)],
        ["verify", "--suite", "zoo", "--n", "3"],
        ["curve", "--name", "ab", "--grid", "5", "--out", "-"],
        ["scan", "--n", "abc", "--out", "-"],
        ["scan", "--n", "4", "--dim", "3", "--out", "-"],
        ["curve", "--grid", "5"],
        ["verify", "--suite", "separability", "--n", "2", "--seed", "4", "--inject-invalid"],
    ]

    def run(argv):
        plot.unlink(missing_ok=True)
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err, plot.exists()

    fresh = []
    for argv in commands:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [r[0] for r in fresh] == [0, 0, 0, 2, 0, 2, 1]
    assert [r[3] for r in fresh] == [True] + [False] * 6
    cli._build_parser.cache_clear()
    for _ in range(2):
        for argv, expected in zip(commands, fresh):
            assert run(argv) == expected, argv
    assert cli._build_parser.cache_info().misses == 1


def test_unknown_family_error_lists_the_registry_in_order(tmp_path, capsys):
    assert main(["analyze", "--spec", _family_spec(tmp_path, "not_a_family")]) == 2
    names = (
        "identity, depolarizing, coarse_graining, complete_contraction, spontaneous_emission, "
        "interval, pauli, reshuffle_invariant, random_cptp, random_bistochastic"
    )
    assert list(cli.FAMILIES) == names.split(", ")
    err = capsys.readouterr().err
    assert err == f"error: unknown family 'not_a_family'; valid names: {names}\n"


# family -> (zoo attribute it builds through, smallest params)
FAMILY_BUILDERS = {
    "identity": ("identity_channel", {}),
    "depolarizing": ("depolarizing", {"alpha": 0.5}),
    "coarse_graining": ("coarse_graining", {}),
    "complete_contraction": ("complete_contraction", {}),
    "spontaneous_emission": ("spontaneous_emission", {}),
    "interval": ("interval_channel", {"alpha": 0.2, "beta": 0.7}),
    "pauli": ("pauli_channel", {"p": [0.4, 0.3, 0.2, 0.1]}),
    "reshuffle_invariant": ("reshuffle_invariant", {"eta": [0.5, 0.3, 0.2]}),
    "random_cptp": ("random_cptp", {}),
    "random_bistochastic": ("random_bistochastic", {}),
}


@pytest.mark.parametrize("family", list(cli.FAMILIES))
def test_each_family_builds_through_the_zoo_attribute_at_call_time(family, monkeypatch):
    # a tracer that patches zoo.<builder> after import must see the call
    attr, params = FAMILY_BUILDERS[family]
    calls = []
    real = getattr(zoo, attr)
    monkeypatch.setattr(zoo, attr, lambda *a: calls.append(a) or real(*a))
    doc = {"dim": 2, "form": "family", "family": {"name": family, "params": params}}
    ch = load_channel_spec(doc)
    assert len(calls) == 1 and ch.dim == 2


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
        ({"dim": 2, "form": "family", "family": {"name": "depolarizing",
                                                  "params": {"alpha": 10**400}}}, "'alpha'"),
        *(
            ({"dim": 2, "form": "family", "family": {"name": name, "params": {key: value}}},
             f"parameter {key!r} must be in [1, 1024], got {value}")
            for name, key in (("random_bistochastic", "k"), ("random_cptp", "env_dim"))
            for value in (0, 1025, 10**30)
        ),
    ],
    ids=["dim_null", "dim_list", "dim_fraction", "superop_dim_null", "superop_dim_fraction",
         "alpha_null", "pauli_p_scalar", "alpha_beyond_float", "k_0", "k_1025", "k_31_digits",
         "env_dim_0", "env_dim_1025", "env_dim_31_digits"],
)
def test_analyze_rejects_spec_values_of_the_wrong_type(tmp_path, capsys, doc, field):
    spec = _write_spec(tmp_path, "spec.json", doc)
    assert main(["analyze", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("error:") == 1 and err.endswith("\n")
    assert err.count("\n") == 1 and field in err


def _numeric_spec_fields(v):
    """``{field: (doc, text naming the field)}`` with ``v`` in each numeric
    field of a channel spec."""

    def family(name, **params):
        return {"dim": 2, "form": "family", "family": {"name": name, "params": params}}

    return {
        "dim": ({"dim": v, "form": "family", "family": {"name": "identity"}}, "dim must be"),
        "alpha": (family("depolarizing", alpha=v), "'alpha'"),
        "beta": (family("interval", alpha=0.3, beta=v), "'beta'"),
        "phi1": (family("interval", alpha=0.3, beta=0.6, phi1=v), "'phi1'"),
        "phi2": (family("interval", alpha=0.3, beta=0.6, phi2=v), "'phi2'"),
        "p": (family("pauli", p=[0.4, v, 0.2, 0.1]), "'p'[1]"),
        "eta": (family("reshuffle_invariant", eta=[0.5, v, 0.2]), "'eta'[1]"),
        "k": (family("random_bistochastic", k=v), "'k'"),
        "env_dim": (family("random_cptp", env_dim=v), "'env_dim'"),
        "seed": (family("random_cptp", seed=v), "'seed'"),
        "index": (family("random_cptp", index=v), "'index'"),
        "entry": ({"form": "kraus", "matrices": [[[1, 0], [0, v]]]}, "matrices[0]: matrix entry"),
        "entry_im": (
            {"form": "kraus", "matrices": [[[1, 0], [0, [1, v]]]]},
            "matrices[0]: matrix entry",
        ),
        "xi": (family("complete_contraction", xi=[[0.5, 0], [0, v]]), "field xi: matrix entry"),
    }


@pytest.mark.parametrize("field", list(_numeric_spec_fields(0)))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True], ids=str)
def test_analyze_rejects_non_finite_and_boolean_spec_numbers(tmp_path, capsys, field, value):
    doc, name = _numeric_spec_fields(value)[field]
    spec = _write_spec(tmp_path, "spec.json", doc)  # NaN, Infinity, -Infinity or true
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        assert main(["analyze", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert name in captured.err and repr(value) in captured.err


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


@pytest.mark.parametrize(
    "doc,builder,message",
    [
        ({"form": "kraus", "matrices": [np.eye(12).tolist()]}, "from_kraus",
         "dim must be in [2, 8], got 12"),
        ({"form": "superoperator", "matrices": [np.eye(144).tolist()]}, "from_superoperator",
         "dim must be in [2, 8], got 12"),
        ({"form": "kraus", "matrices": [np.eye(2).tolist()] * 1025}, "from_kraus",
         "number of Kraus operators must be in [1, 1024], got 1025"),
    ],
    ids=["kraus_12", "superop_144", "kraus_count_1025"],
)
def test_analyze_checks_sizes_before_it_builds(tmp_path, capsys, monkeypatch, doc, builder,
                                                message):
    def never(*args, **kwargs):
        raise AssertionError(f"{builder} was called")

    monkeypatch.setattr(cli, builder, never)
    assert main(["analyze", "--spec", _write_spec(tmp_path, "spec.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "doc",
    [
        *({"form": form, "matrices": [(1e300 * np.eye(side)).tolist()]}
          for form, side in (("superoperator", 4), ("choi", 4), ("kraus", 2))),
        {"form": "family", "family": {"name": "complete_contraction",
                                      "params": {"xi": (1e300 * np.eye(2)).tolist()}}},
    ],
    ids=["superoperator", "choi", "kraus", "contraction_xi"],
)
def test_analyze_rejects_entries_that_overflow_in_one_line(tmp_path, capsys, doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        assert main(["analyze", "--spec", _write_spec(tmp_path, "spec.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "overflow" in captured.err


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


def test_chunk_rows_fill_the_scan_budget():
    # 256 KiB of stacked N^2 x N^2 complex superoperators, at least one row
    assert [cli._chunk_rows(n) for n in range(2, 9)] == [1024, 202, 64, 26, 12, 6, 4]


def test_qudit8_scan_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # 12 rows: three chunks of the default 4, four of 3, twelve of 1
    argv = ["scan", "--ensemble", "random_cptp", "--dim", "8", "--n", "12", "--q", "2"]
    outputs = []
    for rows in (None, 1, 3):
        if rows is not None:
            monkeypatch.setattr(cli, "SCAN_CHUNK_BYTES", rows * 16 * 8**4)
            assert cli._chunk_rows(8) == rows
        out = tmp_path / f"chunk{rows}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("q", ["150", "300"])
def test_scan_at_large_finite_orders_is_finite(tmp_path, q):
    # the direct Rényi sums overflowed here: exit 2 at q = 300 ("bound
    # entropy_sum_lower is not finite"), overflow warnings at q = 150
    out = tmp_path / "large.csv"
    argv = ["scan", "--ensemble", "random_cptp", "--dim", "8", "--n", "2", "--q", q]
    assert main(argv + ["--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
    numeric = [i for i, name in enumerate(header) if name not in ("label", "region")]
    assert len(rows) == 2
    assert all(math.isfinite(float(row[i])) for row in rows for i in numeric)


def test_csv_rows_spell_every_cell_as_fmt():
    cells = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 7, True, "a;b"]
    for x in cells:  # each alone, as a one-cell column
        assert cli._csv_rows([[x]]) == [cli._fmt(x)], x
    assert cli._csv_rows([[x, x] for x in cells]) == [",".join(map(cli._fmt, cells))] * 2
    assert cli._csv_rows([[], []]) == []


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
    formatted = []

    def reproducer(k):
        formatted.append(k)
        return ("finite", "nan-slack", "after")[k]

    line = cli._check("planted", [0.5, math.nan, 0.25], reproducer, [0.0, 1e-8, 0.0])
    assert formatted == [1]
    assert line == "FAIL planted checks=3 worst_slack=nan reproducer=nan-slack"


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
    true_sigma1 = ChannelStack.sigma1
    monkeypatch.setattr(ChannelStack, "sigma1", property(lambda s: true_sigma1.fget(s) - 1e-6))
    assert main(["verify", "--suite", "bounds", "--n", "4", "--seed", "0"]) == 1
    assert "FAIL bounds.sigma1_oracle_one_sided checks=4 " in capsys.readouterr().out


def test_verify_sigma1_oracle_catches_a_search_above_sigma1(capsys, monkeypatch):
    # a search that overshoots sigma1 by more than the 1e-9 allowance fails
    monkeypatch.setattr(bounds, "sigma1_search", lambda stack, budget, seeds: stack.sigma1 + 2e-9)
    assert main(["verify", "--suite", "bounds", "--n", "4", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out[:3]] == ["PASS", "PASS", "FAIL"]
    assert out[2].startswith("FAIL bounds.sigma1_oracle_one_sided checks=4 worst_slack=-1.0")
    assert " reproducer=seed=0,index=0,est=" in out[2]


def test_verify_runs_one_search_per_sampler_group_and_builds_its_qubits_once(
    capsys, monkeypatch
):
    searches, builds = [], []
    real_search, real_build = bounds.sigma1_search, cli._mixed_qubit_stacks

    def search(stack, budget, seeds):
        searches.append((len(stack), budget, list(seeds)))
        return real_search(stack, budget, seeds)

    def build(seed, n):
        builds.append((seed, n))
        return real_build(seed, n)

    monkeypatch.setattr(bounds, "sigma1_search", search)
    monkeypatch.setattr(cli, "_mixed_qubit_stacks", build)
    assert main(["verify", "--suite", "all", "--n", "60", "--seed", "3"]) == 0
    capsys.readouterr()
    # the oracle's 50 channels come in three sampler groups, channel i seeded 3 + i
    assert [(m, budget) for m, budget, _ in searches] == [(26, 500), (12, 500), (12, 500)]
    assert sorted(s for _, _, seeds in searches for s in seeds) == list(range(3, 53))
    # the bounds and separability suites share one build; the oracle has its own
    assert builds == [(3, 60), (4, 50)]


def _reference_qubit_channel(seed, i):
    """Channel ``i`` of the bounds and separability suites, drawn on its own."""
    rng = zoo.rng_substream(seed, i)
    if i % 4 == 2:
        return zoo.random_pauli_channel(rng)
    if i % 4 == 3:
        return zoo.random_bistochastic(2, i % 3 + 1, rng)
    return zoo.random_cptp(2, 2 if i % 4 == 0 else 4, rng)


def _rows_like(stack, channels):
    """Which channels of ``stack`` equal one of ``channels``."""
    return np.array(
        [any(np.allclose(s, ch.superop, rtol=0.0, atol=1e-12) for ch in channels)
         for s in stack.superop],
        dtype=bool,
    )


def test_verify_reports_the_lowest_index_q_and_id_of_a_violated_bound(capsys, monkeypatch):
    # (index, q) where each planted bound fails; index 3 is drawn in the last
    # sampler group, index 5 in the first one
    planted = {
        "map_rank_lower": {(5, 2.0), (3, math.inf), (9, 1.5)},
        "receiver_self_lower": {(3, 1.5), (5, 1.0)},
        "map_cross_lower": {(3, 1.5)},
    }
    table = list(bounds.TABLE)
    for k, b in enumerate(table):
        if b.id in planted:
            def rhs(stack, q, rule=b.rhs, where=planted[b.id]):
                bad = [_reference_qubit_channel(0, i) for i, at in where if at == q]
                return rule(stack, q) + np.where(_rows_like(stack, bad), 1.0, 0.0)

            table[k] = dataclasses.replace(b, rhs=rhs)
    monkeypatch.setattr(bounds, "TABLE", tuple(table))

    # the same violation read off one channel at a time
    first = None
    for i in range(12):
        ch = _reference_qubit_channel(0, i)
        for q in (1.0, 1.5, 2.0, math.inf):
            failing = [r.id for r in bounds.evaluate_all(ch, q).records if not r.satisfied]
            if failing and first is None:
                first = f"seed=0,index={i},q={q},id={failing[0]}"
    assert first == "seed=0,index=3,q=1.5,id=map_cross_lower"

    assert main(["verify", "--suite", "bounds", "--n", "12", "--seed", "0"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("FAIL bounds.report_all_orders checks=732 ")
    assert line.endswith(f" reproducer={first}")


def test_a_bound_that_raises_on_one_row_errors_there_only(capsys, monkeypatch):
    bad = _reference_qubit_channel(0, 6)

    def picky(stack, q):
        if _rows_like(stack, [bad]).any():
            raise FloatingPointError("planted failure")
        return np.zeros(len(stack))

    table = tuple(
        dataclasses.replace(b, rhs=picky) if b.id == "receiver_self_lower" else b
        for b in bounds.TABLE
    )
    monkeypatch.setattr(bounds, "TABLE", table)
    bound = next(b for b in table if b.id == "receiver_self_lower")
    stack, idx = next((s, idx) for s, idx in cli._mixed_qubit_stacks(0, 12) if 6 in idx)
    lhs, rhs, slack, errors = bounds.table_columns(stack, 2.0, [bound])
    assert lhs.shape == rhs.shape == slack.shape == errors.shape == (len(stack), 1)
    raised = [r for r in range(len(stack)) if errors[r, 0] is not None]
    assert raised == [idx.index(6)]
    assert str(errors[raised[0], 0]) == "planted failure"
    for column in (lhs, rhs, slack):
        assert np.isnan(column[raised]).all() and np.isfinite(np.delete(column, raised)).all()

    assert main(["verify", "--suite", "bounds", "--n", "12", "--seed", "0"]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("FAIL bounds.report_all_orders checks=732 worst_slack=nan ")
    assert line.endswith(" reproducer=seed=0,index=6,q=1.0,id=receiver_self_lower_error")


def test_a_check_column_keeps_the_nan_rule_and_formats_the_first_failure_only():
    formatted = []

    def reproducer(*index):
        formatted.append(index)
        return "case " + ",".join(map(str, index))

    line = cli._check("planted", np.array([[0.5, -1e-9], [-2.0, 0.25]]), reproducer, [0.0, 1e-8])
    assert line == "FAIL planted checks=4 worst_slack=-2.000000e+00 reproducer=case 1,0"
    assert formatted == [(1, 0)]
    line = cli._check("planted", [0.1, math.nan, -3.0], reproducer)
    assert line == "FAIL planted checks=3 worst_slack=nan reproducer=case 1"
    assert formatted == [(1, 0), (1,)]
    line = cli._check("planted", [0.0], reproducer)
    assert line == "PASS planted checks=1 worst_slack=0.000000e+00"
    line = cli._check("planted", [-math.inf], reproducer)
    assert line == "FAIL planted checks=1 worst_slack=-inf reproducer=case 0"
    assert formatted == [(1, 0), (1,), (0,)]


def test_a_check_that_ran_no_instance_fails():
    def reproducer(k):
        raise AssertionError("no instance to name")

    line = cli._check("planted", np.empty((0, 3)), reproducer, [0.0, 1e-8, 1e-8])
    assert line == "FAIL planted checks=0 worst_slack=inf reproducer=no_instance"


def test_verify_separability_reports_a_criterion_that_raises(capsys, monkeypatch):
    # the lowest-index PPT channel of the suite at n=8 raises on the first
    # criterion; the other criteria and the region examples are untouched
    first = next(
        i for i in range(8) if separability.ppt_test(_reference_qubit_channel(0, i))[1]
    )
    bad = _reference_qubit_channel(0, first)

    def picky(stack, q):
        if _rows_like(stack, [bad]).any():
            raise FloatingPointError("planted failure")
        return np.zeros(len(stack))

    criteria = list(separability.CRITERIA)
    criteria[0] = dataclasses.replace(criteria[0], rhs=picky)
    monkeypatch.setattr(separability, "CRITERIA", tuple(criteria))
    assert main(["verify", "--suite", "separability", "--n", "8", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    line = captured.out.splitlines()[0]
    assert line.startswith("FAIL separability.ppt_implies_criteria checks=")
    assert " worst_slack=nan " in line
    assert line.endswith(f" reproducer=seed=0,index={first},q=1.5,id={criteria[0].id}_error")
    assert "PASS separability.region_examples" in captured.out


def test_a_criterion_that_raises_everywhere_ends_no_command_in_a_traceback(
    tmp_path, capsys, plant_criteria
):
    def boom(stack, q):
        raise FloatingPointError("planted failure")

    plant_criteria(boom, ids={"separable_map_lower"})
    assert main(["verify", "--suite", "separability", "--n", "8", "--seed", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL separability.ppt_implies_criteria " in captured.out
    assert ",id=separable_map_lower_error" in captured.out
    assert "PASS separability.region_examples" in captured.out

    assert main(["analyze", "--spec", _family_spec(tmp_path, "identity"), "--q", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (verdict,) = json.loads(captured.out)["separability"]
    assert verdict["region"] == "A"  # the other two criteria still certify it
    rec = verdict["criteria"][0]
    assert rec["id"] == "separable_map_lower_error"
    assert rec["lhs"] == rec["rhs"] == rec["slack"] == "nan"
    assert rec["citation"] == "FloatingPointError: planted failure"

    out = tmp_path / "scan.csv"
    assert main(["scan", "--n", "5", "--q", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bound separable_map_lower failed on seed_index 0: "
        "FloatingPointError: planted failure\n"
    )
    assert not out.exists()


def test_verify_lemmas_names_a_planted_spectrum_violation(capsys, monkeypatch):
    # the upper bound of matrix 2 at its third order, q = 4, gets a negative
    # slack in the stacked evaluator, which finds its row by its spectrum
    rng = zoo.rng_substream(0, 2)
    size = int(rng.integers(4, 10))
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    target = np.linalg.svd(m, compute_uv=False)
    real = bounds.lemma_columns
    planted_rows = []

    def planted(sx, sy, q):
        lhs, rhs, slack = real(sx, sy, q)
        if q == 4.0 and sx.shape[1] == size:
            rows = np.flatnonzero((sx == target).all(axis=1))
            slack[rows, 1] = -1.0
            planted_rows.extend(rows)
        return lhs, rhs, slack

    monkeypatch.setattr(bounds, "lemma_columns", planted)
    assert main(["verify", "--suite", "lemmas", "--n", "5", "--seed", "0"]) == 1
    assert len(planted_rows) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "FAIL lemmas.spectrum_vs_extremes checks=30 worst_slack=-1.000000e+00 "
        "reproducer=seed=0,index=2,q=4.0,id=spectral_entropy_upper"
    )
    assert [line.split()[0] for line in lines[:4]] == ["PASS", "FAIL", "PASS", "PASS"]


def test_verify_lemmas_takes_two_svds_per_matrix_size(capsys, monkeypatch):
    from qchan import matcore

    real = np.linalg.svd
    svds, norms = [], []

    def counting(a, *args, **kwargs):
        svds.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(matcore, "q_norm", lambda m, q: norms.append(q))
    assert main(["verify", "--suite", "lemmas", "--n", "100", "--seed", "0"]) == 0
    sizes = {int(zoo.rng_substream(0, i).integers(4, 10)) for i in range(100)}
    assert len(sizes) == 6
    assert 0 < len(svds) <= 2 * len(sizes) and all(len(shape) == 3 for shape in svds)
    assert norms == []
    capsys.readouterr()


def test_verify_zoo_names_the_one_family_sample_that_does_not_validate(capsys, monkeypatch):
    def inflated(rngs, *, index=None):  # Pauli weights that sum to 1.5 for sample 2 only
        p = np.array([rng.dirichlet(np.ones(4)) for rng in rngs])
        p[[rng.bit_generator.seed_seq.entropy == (0, 30_002) for rng in rngs]] *= 1.5
        return zoo._pauli_stack(p, index)

    monkeypatch.setattr(zoo, "random_pauli_stack", inflated)
    assert main(["verify", "--suite", "zoo", "--n", "4", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL zoo.families_pass_validation checks=8 worst_slack=-1.000000e+00 " in out
    assert "reproducer=seed=0,index=2,error=TP fails" in out
    assert out.endswith("verify: 4 passed, 1 failed (suite=zoo, n=4, seed=0)\n")


def test_verify_zoo_samples_the_families_as_stacks(capsys, monkeypatch):
    calls = []
    for name in ("random_interval_channel", "random_pauli_channel"):
        monkeypatch.setattr(zoo, name, calls.append)
    assert main(["verify", "--suite", "zoo", "--n", "100", "--seed", "3"]) == 0
    assert calls == []
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["bounds", "separability"])
def test_verify_builds_no_channel_one_at_a_time(suite, capsys, monkeypatch):
    calls = []
    real = Channel.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Channel, "__init__", counting)
    assert main(["verify", "--suite", suite, "--n", "12", "--seed", "2"]) == 0
    built = len(calls)
    # the region examples are the only channels built on their own
    zoo.identity_channel(2)
    zoo.maximally_depolarizing(2)
    zoo.coarse_graining(2)
    zoo.depolarizing(2, 1.0 / 3.0)
    examples = len(calls) - built
    assert examples > 0
    assert built == (examples if suite == "separability" else 0)
    capsys.readouterr()


def _verify_golden_blocks():
    blocks = []
    for line in VERIFY_GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("# verify "):
            blocks.append([line[2:].split(), "", None])
        elif line.startswith("# exit "):
            blocks[-1][2] = int(line.split()[2])
        elif not line.startswith("#"):
            blocks[-1][1] += line
    return blocks


def test_verify_matches_the_parent_golden_bytes(capsys):
    blocks = _verify_golden_blocks()
    assert len(blocks) == 16
    for argv, expected, code in blocks:
        assert main(argv) == code, argv
        assert capsys.readouterr().out == expected, argv


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
